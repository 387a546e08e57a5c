"""Core specification: cores, their geometry and 3-D layer assignment.

Mirrors the paper's *core specification file* (Sec. IV): "the name of the
different cores, the sizes, and positions are given as inputs. The assignment
of the cores to the different layers in 3-D is also specified."
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SpecError


def is_finite_real(value: object) -> bool:
    """A finite real number. ``bool`` is refused: it is an ``int`` subclass
    but never a size, position, bandwidth or latency."""
    return (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
        and math.isfinite(value)
    )


def is_integer(value: object) -> bool:
    """An integer proper (``operator.index`` accepts it), not a bool."""
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def check_finite(owner: str, **values: object) -> None:
    """Raise :class:`SpecError` unless every value is a finite real number."""
    for name, value in values.items():
        if not is_finite_real(value):
            raise SpecError(
                f"{owner}: {name} must be a finite number, got {value!r}"
            )


@dataclass(frozen=True)
class Core:
    """A single IP core.

    Attributes:
        name: Unique identifier (e.g. ``"ARM"``, ``"MEM3"``).
        width: Core width in mm.
        height: Core height in mm.
        x: Lower-left x coordinate in mm (within its layer's floorplan).
        y: Lower-left y coordinate in mm.
        layer: 3-D layer index, 0 = bottom die.
    """

    name: str
    width: float
    height: float
    x: float = 0.0
    y: float = 0.0
    layer: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("core name must be non-empty")
        owner = f"core {self.name!r}"
        check_finite(
            owner, width=self.width, height=self.height, x=self.x, y=self.y
        )
        if not is_integer(self.layer):
            raise SpecError(f"{owner}: layer must be an integer, got {self.layer!r}")
        if self.width <= 0 or self.height <= 0:
            raise SpecError(
                f"core {self.name!r}: width/height must be positive "
                f"(got {self.width} x {self.height})"
            )
        if self.layer < 0:
            raise SpecError(f"core {self.name!r}: layer must be >= 0, got {self.layer}")

    @property
    def area(self) -> float:
        """Core area in mm^2."""
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        """(x, y) of the core centre, the point links attach to."""
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    def moved_to(self, x: float, y: float) -> "Core":
        """A copy of this core at a new lower-left position."""
        return replace(self, x=x, y=y)

    def on_layer(self, layer: int) -> "Core":
        """A copy of this core assigned to a different 3-D layer."""
        return replace(self, layer=layer)


@dataclass
class CoreSpec:
    """The full core specification: an ordered collection of :class:`Core`.

    Core order is significant: graph algorithms index cores by their position
    in this list, so the spec also provides name <-> index lookup.
    """

    cores: List[Core] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen = set()
        for core in self.cores:
            if core.name in seen:
                raise SpecError(f"duplicate core name {core.name!r}")
            seen.add(core.name)

    def __len__(self) -> int:
        return len(self.cores)

    def __iter__(self) -> Iterator[Core]:
        return iter(self.cores)

    def __getitem__(self, index: int) -> Core:
        return self.cores[index]

    @property
    def names(self) -> List[str]:
        return [c.name for c in self.cores]

    def index_of(self, name: str) -> int:
        """Index of the core called ``name`` (raises SpecError if absent)."""
        for i, core in enumerate(self.cores):
            if core.name == name:
                return i
        raise SpecError(f"unknown core {name!r}")

    def by_name(self, name: str) -> Core:
        return self.cores[self.index_of(name)]

    @property
    def num_layers(self) -> int:
        """Number of 3-D layers spanned (max layer index + 1)."""
        if not self.cores:
            return 0
        return max(c.layer for c in self.cores) + 1

    def cores_in_layer(self, layer: int) -> List[Core]:
        return [c for c in self.cores if c.layer == layer]

    def indices_in_layer(self, layer: int) -> List[int]:
        return [i for i, c in enumerate(self.cores) if c.layer == layer]

    def layer_of(self, index: int) -> int:
        return self.cores[index].layer

    @property
    def layers(self) -> Dict[int, List[int]]:
        """Mapping layer -> list of core indices, for every populated layer."""
        out: Dict[int, List[int]] = {}
        for i, core in enumerate(self.cores):
            out.setdefault(core.layer, []).append(i)
        return out

    def total_core_area(self, layer: Optional[int] = None) -> float:
        """Sum of core areas, optionally restricted to one layer."""
        cores = self.cores if layer is None else self.cores_in_layer(layer)
        return sum(c.area for c in cores)

    def with_positions(
        self, positions: Sequence[Tuple[float, float]]
    ) -> "CoreSpec":
        """A copy with new lower-left positions, one (x, y) per core."""
        if len(positions) != len(self.cores):
            raise SpecError(
                f"expected {len(self.cores)} positions, got {len(positions)}"
            )
        return CoreSpec(
            cores=[c.moved_to(px, py) for c, (px, py) in zip(self.cores, positions)]
        )

    def with_layers(self, layers: Sequence[int]) -> "CoreSpec":
        """A copy with a new layer assignment, one layer index per core."""
        if len(layers) != len(self.cores):
            raise SpecError(f"expected {len(self.cores)} layers, got {len(layers)}")
        return CoreSpec(cores=[c.on_layer(l) for c, l in zip(self.cores, layers)])

    def flattened_to_2d(self) -> "CoreSpec":
        """All cores moved to layer 0 (positions untouched).

        Used as a starting point when deriving the 2-D implementation of a 3-D
        benchmark; the 2-D flow then re-floorplans the single die.
        """
        return self.with_layers([0] * len(self.cores))
