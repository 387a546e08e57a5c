"""TSV macro placement (Sec. III).

A vertical link from layer ``lo`` up to layer ``hi`` is routed on the metal
layers of the bottom die and drilled through every die above it. Area must be
reserved wherever silicon is pierced:

* on the **top layer** (``hi``) the TSV macro is *embedded* in the port of
  the switch/NI the link lands on — no explicit floorplan rectangle, but the
  area is accounted to that component;
* on every **intermediate layer** (``lo < l < hi``) an *explicit* TSV macro
  must be placed in the floorplan, ideally aligned with the top component so
  the vertical segment stays straight.

"The TSV macros are placed automatically by our tool" — this module does so
using the same custom insertion routine as the switches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.floorplan.inserter import InsertionReport, NewComponent, insert_components
from repro.floorplan.placement import ChipFloorplan, PlacedComponent
from repro.models.tsv_model import TsvModel


@dataclass(frozen=True)
class VerticalLinkSpec:
    """Description of one vertical link for macro placement.

    Attributes:
        name: Unique link name (used to name the macros).
        lo_layer / hi_layer: Bottom and top layer indices (lo < hi).
        top_center: (x, y) of the component the link lands on in the top
            layer; intermediate macros are ideally aligned with it.
    """

    name: str
    lo_layer: int
    hi_layer: int
    top_center: Tuple[float, float]

    def __post_init__(self) -> None:
        if self.lo_layer >= self.hi_layer:
            raise ValueError(
                f"vertical link {self.name!r}: lo_layer {self.lo_layer} must be "
                f"below hi_layer {self.hi_layer}"
            )

    @property
    def intermediate_layers(self) -> List[int]:
        return list(range(self.lo_layer + 1, self.hi_layer))


def place_tsv_macros(
    floorplan: ChipFloorplan,
    links: Sequence[VerticalLinkSpec],
    tsv_model: TsvModel,
    width_bits: int,
    *,
    search_radius: float = 1.5,
    grid_step: float = 0.1,
    report: InsertionReport = None,
) -> ChipFloorplan:
    """Place explicit TSV macros for every multi-layer vertical link.

    Returns a new :class:`ChipFloorplan` with the macros inserted (existing
    components may be displaced by the insertion routine). Adjacent-layer
    links need no explicit macros (the area is embedded in the top component,
    accounted for by the metrics code), so they contribute nothing here.
    """
    area = tsv_model.macro_area_mm2(width_bits)
    side = math.sqrt(area)

    per_layer: Dict[int, List[NewComponent]] = {}
    for link in links:
        for layer in link.intermediate_layers:
            macros = per_layer.setdefault(layer, [])
            macros.append(
                NewComponent(
                    name=f"tsv:{link.name}:L{layer}",
                    kind="tsv",
                    width=side,
                    height=side,
                    ideal_center=link.top_center,
                )
            )

    out = ChipFloorplan()
    num_layers = max(
        floorplan.num_layers,
        max((l.hi_layer + 1 for l in links), default=0),
    )
    for layer in range(num_layers):
        comps = floorplan.in_layer(layer)
        if layer in per_layer:
            comps = insert_components(
                comps,
                per_layer[layer],
                layer=layer,
                search_radius=search_radius,
                grid_step=grid_step,
                report=report,
            )
        for c in comps:
            out.add(c)
    return out
