"""The paper's custom NoC-insertion floorplanning routine (Sec. VII).

"We consider one switch or TSV macro at a time. We try to find a free space
near its ideal location to place it. [...] If no space is available, we
displace the already placed blocks from their positions in the x or y
direction by the size of the component, creating space. Moving a block to
create space for the new component can cause overlap with other already
placed blocks. We iteratively move the necessary blocks in the same
direction as the first block, until we remove all overlaps."

The routine operates on a single layer; callers loop over layers.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FloorplanError
from repro.floorplan.geometry import _EPS, Rect, rects_overlap
from repro.floorplan.placement import PlacedComponent


@dataclass(frozen=True)
class NewComponent:
    """A component to insert: name, kind, size and ideal centre position."""

    name: str
    kind: str
    width: float
    height: float
    ideal_center: Tuple[float, float]


@dataclass
class InsertionReport:
    """Statistics of one insertion run (used by tests and experiments)."""

    placed_free: int = 0
    placed_by_displacement: int = 0
    total_displacement: float = 0.0


def insert_components(
    existing: Sequence[PlacedComponent],
    new_components: Sequence[NewComponent],
    *,
    layer: int,
    search_radius: float = 1.5,
    grid_step: float = 0.1,
    report: Optional[InsertionReport] = None,
) -> List[PlacedComponent]:
    """Insert ``new_components`` into a placed layer, removing all overlap.

    Args:
        existing: Already-placed components of ``layer``.
        new_components: Components to add, in insertion order. As in the
            paper, earlier insertions may create gaps that later ones reuse.
        layer: The layer being filled; every output component lands on it,
            also when ``existing`` is empty.
        search_radius: Radius (mm) of the free-space search around the ideal
            position — "the area in which we look for free space is the same
            for all of the switches, as it is given as a constant".
        grid_step: Resolution of the candidate-position search; at most
            :data:`MAX_SEARCH_STEPS` steps per side of the search square.
        report: Optional statistics accumulator.

    Returns:
        A new component list: every input component (possibly displaced)
        plus the new ones, overlap-free.
    """
    layers = {c.layer for c in existing} | {layer}
    if len(layers) > 1:
        raise FloorplanError(
            f"insert_components works on a single layer, got layers "
            f"{sorted(layers)} for layer {layer}"
        )
    if report is None:
        report = InsertionReport()

    names = [c.name for c in existing]
    kinds = [c.kind for c in existing]
    rects = [c.rect for c in existing]
    original = {c.name: c.rect for c in existing}

    for comp in new_components:
        ideal_x = max(0.0, comp.ideal_center[0] - comp.width / 2.0)
        ideal_y = max(0.0, comp.ideal_center[1] - comp.height / 2.0)
        target = Rect(ideal_x, ideal_y, comp.width, comp.height)

        spot = _find_free_spot(target, rects, search_radius, grid_step)
        if spot is not None:
            rects.append(spot)
            report.placed_free += 1
        else:
            rects.append(target)
            _displace(rects, len(rects) - 1)
            report.placed_by_displacement += 1
        names.append(comp.name)
        kinds.append(comp.kind)

    for name, rect in zip(names, rects):
        if name in original:
            old = original[name]
            report.total_displacement += abs(rect.x - old.x) + abs(rect.y - old.y)

    return [
        PlacedComponent(name=n, kind=k, rect=r, layer=layer)
        for n, k, r in zip(names, kinds, rects)
    ]


# --------------------------------------------------------------------------
# internals
# --------------------------------------------------------------------------

#: Margin (mm) added on every side of the search window before dropping
#: the placed rects that cannot reach it, so the prefilter stays
#: conservative whatever the rounding of ``x + dx``.
_WINDOW_SLACK = 1e-6

#: The most grid steps per side of the search square,
#: ``ceil(search_radius / grid_step)``: 200 gives a table of 401 x 401
#: offsets. Synthesis uses 10 (``FloorplanStage``'s search-grid
#: constants) and this module's keyword defaults 15.
MAX_SEARCH_STEPS = 200

#: Candidate offsets tested per numpy sweep of the free-space search; bounds
#: the work arrays at ``_CHUNK`` x (placed rects near the window).
_CHUNK = 256


@lru_cache(maxsize=16)
def _search_offsets(
    search_radius: float, grid_step: float
) -> Tuple[float, np.ndarray, np.ndarray]:
    """The candidate grid around the ideal position, nearest first.

    Returns ``(reach, dx, dy)``: ``reach`` is the largest ``|dx|`` or
    ``|dy|`` in the table, ``|steps * grid_step|``. It can exceed
    ``search_radius`` when the step does not divide the radius. The offsets
    ``(dx[k], dy[k]) = (i * grid_step, j * grid_step)`` exclude ``(0, 0)``
    and are sorted by ``(|dx| + |dy|, dx, dy)``.

    Raises:
        FloorplanError: ``grid_step`` is not positive, or the square has
            more than :data:`MAX_SEARCH_STEPS` steps per side.
    """
    if not grid_step > 0:
        raise FloorplanError(f"grid_step must be positive, got {grid_step}")
    if not search_radius / grid_step <= MAX_SEARCH_STEPS:
        raise FloorplanError(
            f"search_radius {search_radius} / grid_step {grid_step} exceeds "
            f"{MAX_SEARCH_STEPS} grid steps per side"
        )
    steps = max(1, int(math.ceil(search_radius / grid_step)))
    i, j = np.meshgrid(
        np.arange(-steps, steps + 1), np.arange(-steps, steps + 1),
        indexing="ij",
    )
    keep = (i != 0) | (j != 0)
    dx = i[keep] * grid_step
    dy = j[keep] * grid_step
    order = np.lexsort((dy, dx, np.abs(dx) + np.abs(dy)))
    dx, dy = dx[order], dy[order]
    # Cached and shared by every call: read-only.
    dx.flags.writeable = dy.flags.writeable = False
    return abs(steps * grid_step), dx, dy


def _find_free_spot(
    target: Rect,
    placed: Sequence[Rect],
    search_radius: float,
    grid_step: float,
) -> Optional[Rect]:
    """Nearest overlap-free position for ``target`` within the search radius.

    Candidate offsets form a grid of pitch ``grid_step`` over the search
    square, visited in increasing Manhattan distance from the ideal position,
    so the first hit is the closest free spot at that resolution. The grid
    (rather than a sparse ring scan) matters in tightly packed floorplans,
    where the only free space is thin slivers between cores.

    Only the placed rects that can reach the search window are tested, with
    the comparisons of :func:`rects_overlap` on the same float values: the
    ideal position first, then the offsets in chunks of :data:`_CHUNK` as
    numpy arrays, each chunk against every nearby rect at once.
    """
    tx, ty, w, h = target.x, target.y, target.width, target.height
    reach, offsets_x, offsets_y = _search_offsets(search_radius, grid_step)
    lo_x = tx - reach - _WINDOW_SLACK
    hi_x = tx + reach + w + _WINDOW_SLACK
    lo_y = ty - reach - _WINDOW_SLACK
    hi_y = ty + reach + h + _WINDOW_SLACK
    near = []
    for r in placed:
        x2, y2 = r.x2, r.y2
        if x2 > lo_x and r.x < hi_x and y2 > lo_y and r.y < hi_y:
            near.append((r.x + _EPS, x2, r.y + _EPS, y2))

    if not _hits(tx, ty, tx + w, ty + h, near):
        return target
    rx_eps, rx2, ry_eps, ry2 = np.array(near).T
    for start in range(0, len(offsets_x), _CHUNK):
        x = tx + offsets_x[start:start + _CHUNK]
        y = ty + offsets_y[start:start + _CHUNK]
        hit = (
            ((x + _EPS)[:, None] < rx2) & (rx_eps < (x + w)[:, None])
            & ((y + _EPS)[:, None] < ry2) & (ry_eps < (y + h)[:, None])
        ).any(axis=1)
        free = ~hit & ~(x < 0) & ~(y < 0)
        k = int(free.argmax())
        if free[k]:
            # The scalar sums repeat the array ones exactly, and keep the
            # type of ``tx`` (a numpy float when it came from the LP).
            k += start
            return Rect(tx + float(offsets_x[k]), ty + float(offsets_y[k]), w, h)
    return None


def _hits(
    x: float,
    y: float,
    x2: float,
    y2: float,
    near: Sequence[Tuple[float, float, float, float]],
) -> bool:
    """Whether the rect spanning ``[x, x2] x [y, y2]`` overlaps any rect of
    ``near``, each given as ``(x + eps, x2, y + eps, y2)``: the comparisons
    of :func:`rects_overlap`, on the same float values."""
    x_eps = x + _EPS
    y_eps = y + _EPS
    for rx_eps, rx2, ry_eps, ry2 in near:
        if x_eps < rx2 and rx_eps < x2 and y_eps < ry2 and ry_eps < y2:
            return True
    return False


def _displace(rects: List[Rect], new_index: int) -> None:
    """Resolve overlaps with ``rects[new_index]`` by cascading pushes.

    Tries pushing in +x and +y, keeps the direction with the smaller total
    displacement (the paper displaces "in the x or y direction").
    """
    for_x = _cascade(rects, new_index, axis=0)
    for_y = _cascade(rects, new_index, axis=1)
    chosen = for_x if for_x[0] <= for_y[0] else for_y
    _, moved = chosen
    for idx, rect in moved.items():
        rects[idx] = rect


def _cascade(
    rects: Sequence[Rect], new_index: int, axis: int
) -> Tuple[float, dict]:
    """Simulate pushing all conflicting blocks along ``axis`` (0=x, 1=y).

    Returns (total displacement, {index: new rect}). The new component at
    ``new_index`` never moves. Pushes strictly increase the pushed
    coordinate, so the cascade terminates.
    """
    working = list(rects)
    total = 0.0
    # Worklist of blocks that may overlap something and must be checked
    # against all others; start from the inserted block.
    frontier = deque([new_index])
    guard = 0
    while frontier:
        guard += 1
        if guard > 10_000:
            raise FloorplanError("displacement cascade failed to converge")
        pusher = frontier.popleft()
        pr = working[pusher]
        for idx in range(len(working)):
            if idx == pusher or idx == new_index:
                continue
            r = working[idx]
            if rects_overlap(pr, r):
                if axis == 0:
                    shift = pr.x2 - r.x
                    moved = r.translated(shift, 0.0)
                else:
                    shift = pr.y2 - r.y
                    moved = r.translated(0.0, shift)
                working[idx] = moved
                total += shift
                frontier.append(idx)
    changed = {
        i: r for i, r in enumerate(working)
        if r is not rects[i] and i != new_index
    }
    return total, changed
