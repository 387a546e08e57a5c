"""Rectangle geometry shared by all floorplanning code.

Coordinates follow the core-spec convention: lower-left origin, x to the
right, y up, units in millimetres.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

_EPS = 1e-9


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle with a lower-left anchor."""

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width < 0 or self.height < 0:
            raise ValueError(
                f"rectangle dimensions must be non-negative, got "
                f"{self.width} x {self.height}"
            )

    @property
    def x2(self) -> float:
        return self.x + self.width

    @property
    def y2(self) -> float:
        return self.y + self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    def moved_to(self, x: float, y: float) -> "Rect":
        return Rect(x, y, self.width, self.height)

    def translated(self, dx: float, dy: float) -> "Rect":
        return Rect(self.x + dx, self.y + dy, self.width, self.height)

    def contains_point(self, px: float, py: float) -> bool:
        return self.x - _EPS <= px <= self.x2 + _EPS and (
            self.y - _EPS <= py <= self.y2 + _EPS
        )


def rects_overlap(a: Rect, b: Rect, eps: float = _EPS) -> bool:
    """Strict interior overlap (shared edges do not count)."""
    return (
        a.x + eps < b.x2
        and b.x + eps < a.x2
        and a.y + eps < b.y2
        and b.y + eps < a.y2
    )


def overlap_area(a: Rect, b: Rect) -> float:
    """Area of the intersection of two rectangles (0 if disjoint)."""
    w = min(a.x2, b.x2) - max(a.x, b.x)
    h = min(a.y2, b.y2) - max(a.y, b.y)
    if w <= 0 or h <= 0:
        return 0.0
    return w * h


def bounding_box(rects: Iterable[Rect]) -> Optional[Rect]:
    """Smallest rectangle containing all ``rects`` (None for empty input).

    The bounding box is anchored at the origin-side extremes of the content,
    i.e. it spans [min x, max x2] x [min y, max y2].
    """
    rects = list(rects)
    if not rects:
        return None
    x1 = min(r.x for r in rects)
    y1 = min(r.y for r in rects)
    x2 = max(r.x2 for r in rects)
    y2 = max(r.y2 for r in rects)
    return Rect(x=x1, y=y1, width=x2 - x1, height=y2 - y1)
