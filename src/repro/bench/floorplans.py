"""Initial floorplan generation for the benchmarks.

"The initial positions of the cores in each layer of the 3-D and for the 2-D
design are obtained using existing tools [38]. For fair comparisons, we use
the same objectives of minimizing area and wire-length when obtaining the
floorplan for both the cases." (Sec. VIII-A)

The 3-D stack is floorplanned layer by layer; cores in upper layers are
anchored to the positions of the lower-layer cores they communicate with, so
vertically-communicating cores end up roughly stacked.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.floorplan.annealer import anneal_floorplan
from repro.graphs.comm_graph import CommGraph
from repro.spec.core_spec import CoreSpec


def floorplan_2d(
    core_spec: CoreSpec,
    graph: CommGraph,
    *,
    seed: int = 0,
    moves: int = 4000,
    wirelength_weight: float = 1.0,
) -> CoreSpec:
    """Floorplan all cores on a single die (the 2-D variant)."""
    widths = [c.width for c in core_spec]
    heights = [c.height for c in core_spec]
    nets = _bandwidth_nets(graph, list(range(len(core_spec))))
    result = anneal_floorplan(
        widths, heights, nets,
        wirelength_weight=wirelength_weight, seed=seed, moves=moves,
    )
    flat = core_spec.flattened_to_2d()
    return flat.with_positions(result.positions)


def floorplan_3d(
    core_spec: CoreSpec,
    graph: CommGraph,
    *,
    seed: int = 0,
    moves: int = 4000,
    wirelength_weight: float = 1.0,
    anchor_weight: float = 2.0,
) -> CoreSpec:
    """Floorplan each layer of a 3-D core spec (layers must be assigned).

    Layer 0 is floorplanned first; each subsequent layer's cores are pulled
    (via anchor nets) towards the placed positions of the cores in lower
    layers they communicate with.
    """
    n = len(core_spec)
    positions: List[Tuple[float, float]] = [(0.0, 0.0)] * n
    placed_centers: Dict[int, Tuple[float, float]] = {}

    for layer in range(core_spec.num_layers):
        members = core_spec.indices_in_layer(layer)
        widths = [core_spec[i].width for i in members]
        heights = [core_spec[i].height for i in members]
        nets = _bandwidth_nets(graph, members)

        anchors: Dict[Tuple[int, Tuple[float, float]], float] = {}
        member_set = set(members)
        local = {g: l for l, g in enumerate(members)}
        for i, j, flow in graph.flows():
            for a, b in ((i, j), (j, i)):
                if a in member_set and b in placed_centers:
                    key = (local[a], placed_centers[b])
                    anchors[key] = anchors.get(key, 0.0) + (
                        anchor_weight * flow.bandwidth
                    )

        result = anneal_floorplan(
            widths, heights, nets, anchors,
            wirelength_weight=wirelength_weight,
            seed=seed + layer, moves=moves,
        )
        for l, g in enumerate(members):
            positions[g] = result.positions[l]
            core = core_spec[g]
            placed_centers[g] = (
                result.positions[l][0] + core.width / 2.0,
                result.positions[l][1] + core.height / 2.0,
            )

    return core_spec.with_positions(positions)


def _bandwidth_nets(
    graph: CommGraph, members: Sequence[int]
) -> Dict[Tuple[int, int], float]:
    """Intra-member bandwidth nets, keyed by local indices into members."""
    local = {g: l for l, g in enumerate(members)}
    nets: Dict[Tuple[int, int], float] = {}
    for i, j, flow in graph.flows():
        if i in local and j in local:
            key = (min(local[i], local[j]), max(local[i], local[j]))
            nets[key] = nets.get(key, 0.0) + flow.bandwidth
    return nets
