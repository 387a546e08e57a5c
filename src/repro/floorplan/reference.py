"""Frozen pre-optimisation floorplanning: the naive baselines.

This module preserves, verbatim, the two annealing loops as they existed
before the :class:`~repro.floorplan.engine._AnnealState` overhaul: every
move rebuilds a validated :class:`SequencePair`, reruns the full numpy
longest-path packing via :func:`seqpair_to_positions` and re-sums every
net. It also preserves the custom NoC inserter as it was before the
window prefilter: every grid offset is tested against every placed rect.
It exists for two reasons (the :mod:`repro.engine.reference` pattern):

* **regression** — tests assert the incremental
  :func:`repro.floorplan.annealer.anneal_floorplan` and
  :func:`repro.floorplan.constrained.constrained_insert` produce
  *bit-identical* accepted-move trajectories and final floorplans, and
  that :func:`repro.floorplan.inserter.insert_components` places every
  component exactly where :func:`naive_insert_components` does;
* **benchmarking** — ``benchmarks/bench_floorplan_anneal.py`` asserts the
  incremental annealer's moves-per-second floor and the inserter's
  speedup floor against this module, and the claims only mean something
  against the genuine old code (the end-to-end benchmark,
  ``python3 perfbench/run.py``, times the flow).

The unchanged substrate (:class:`SequencePair`, :func:`seqpair_to_positions`,
:func:`positions_to_seqpair`) is shared with the optimised modules — it was
kept as the frozen public API, so sharing keeps the baseline honest.

Do not "optimise" this module.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import FloorplanError
from repro.floorplan.annealer import AnchorNets, FloorplanResult, PairNets
from repro.floorplan.geometry import Rect, rects_overlap
from repro.floorplan.inserter import InsertionReport, NewComponent
from repro.floorplan.placement import PlacedComponent
from repro.floorplan.sequence_pair import (
    SequencePair,
    positions_to_seqpair,
    seqpair_to_positions,
)
from repro.rng import make_rng


# --------------------------------------------------------------------------
# the naive per-move evaluation (shared by both loops and the tests)
# --------------------------------------------------------------------------

def naive_evaluate_floorplan(
    sp: SequencePair,
    widths: Sequence[float],
    heights: Sequence[float],
    nets: Optional[PairNets] = None,
    anchors: Optional[AnchorNets] = None,
) -> Tuple[float, float, List[Tuple[float, float]]]:
    """One full from-scratch evaluation: pack, area, wirelength."""
    pos = seqpair_to_positions(sp, widths, heights)
    area = _packed_area(pos, widths, heights)
    wl = _wirelength(pos, widths, heights, dict(nets or {}), dict(anchors or {}))
    return area, wl, pos


def _packed_area(
    positions: Sequence[Tuple[float, float]],
    widths: Sequence[float],
    heights: Sequence[float],
) -> float:
    w = max(x + widths[i] for i, (x, _) in enumerate(positions))
    h = max(y + heights[i] for i, (_, y) in enumerate(positions))
    return w * h


def _wirelength(
    positions: Sequence[Tuple[float, float]],
    widths: Sequence[float],
    heights: Sequence[float],
    nets: Dict[Tuple[int, int], float],
    anchors: Dict[Tuple[int, Tuple[float, float]], float],
) -> float:
    def center(i: int) -> Tuple[float, float]:
        x, y = positions[i]
        return (x + widths[i] / 2.0, y + heights[i] / 2.0)

    total = 0.0
    for (a, b), weight in nets.items():
        ca, cb = center(a), center(b)
        total += weight * (abs(ca[0] - cb[0]) + abs(ca[1] - cb[1]))
    for (a, point), weight in anchors.items():
        ca = center(a)
        total += weight * (abs(ca[0] - point[0]) + abs(ca[1] - point[1]))
    return total


def _perturb(sp: SequencePair, rng) -> SequencePair:
    n = sp.n
    i, j = rng.randrange(n), rng.randrange(n)
    while j == i:
        j = rng.randrange(n)
    move = rng.randrange(3)
    if move == 0:
        return sp.with_swap_positive(i, j)
    if move == 1:
        return sp.with_swap_negative(i, j)
    return sp.with_swap_both(i, j)


# --------------------------------------------------------------------------
# the naive annealer (pre-incremental anneal_floorplan, verbatim)
# --------------------------------------------------------------------------

def naive_anneal_floorplan(
    widths: Sequence[float],
    heights: Sequence[float],
    nets: Optional[PairNets] = None,
    anchors: Optional[AnchorNets] = None,
    *,
    wirelength_weight: float = 1.0,
    seed: int = 0,
    moves: int = 4000,
    initial_temperature: float = 1.0,
    cooling: float = 0.995,
    initial_sp: Optional[SequencePair] = None,
) -> FloorplanResult:
    """Floorplan with the pre-incremental hot path (reference)."""
    n = len(widths)
    if n == 0:
        raise ValueError("cannot floorplan zero blocks")
    if len(heights) != n:
        raise ValueError("widths and heights must have equal length")
    nets = dict(nets or {})
    anchors = dict(anchors or {})

    rng = make_rng(seed, "floorplan-anneal")
    sp = initial_sp if initial_sp is not None else SequencePair.grid(n)
    if sp.n != n:
        raise ValueError(f"initial sequence pair has {sp.n} blocks, expected {n}")

    def evaluate(sp_: SequencePair) -> Tuple[float, float, List[Tuple[float, float]]]:
        pos = seqpair_to_positions(sp_, widths, heights)
        area = _packed_area(pos, widths, heights)
        wl = _wirelength(pos, widths, heights, nets, anchors)
        return area, wl, pos

    area0, wl0, pos0 = evaluate(sp)
    area_scale = area0 if area0 > 0 else 1.0
    wl_scale = wl0 if wl0 > 0 else 1.0

    def cost_of(area: float, wl: float) -> float:
        return area / area_scale + wirelength_weight * wl / wl_scale

    current_cost = cost_of(area0, wl0)
    best = FloorplanResult(
        positions=pos0, sequence_pair=sp, area=area0, wirelength=wl0,
        cost=current_cost, moves_evaluated=0,
    )

    temperature = initial_temperature
    evaluated = 0
    for _ in range(moves):
        if n == 1:
            break
        candidate = _perturb(sp, rng)
        area, wl, pos = evaluate(candidate)
        cand_cost = cost_of(area, wl)
        evaluated += 1
        accept = cand_cost <= current_cost or (
            temperature > 1e-12
            and rng.random() < math.exp((current_cost - cand_cost) / temperature)
        )
        if accept:
            sp = candidate
            current_cost = cand_cost
            if cand_cost < best.cost:
                best = FloorplanResult(
                    positions=pos, sequence_pair=sp, area=area, wirelength=wl,
                    cost=cand_cost, moves_evaluated=evaluated,
                )
        temperature *= cooling

    best.moves_evaluated = evaluated
    return best


# --------------------------------------------------------------------------
# the naive constrained inserter (pre-incremental constrained_insert)
# --------------------------------------------------------------------------

def naive_constrained_insert(
    existing: Sequence[PlacedComponent],
    new_components: Sequence[NewComponent],
    *,
    seed: int = 0,
    moves: int = 3000,
    displacement_weight: float = 1.0,
    initial_temperature: float = 1.0,
    cooling: float = 0.995,
) -> List[PlacedComponent]:
    """Constrained insertion with the pre-incremental hot path (reference)."""
    layers = {c.layer for c in existing}
    if len(layers) > 1:
        raise FloorplanError(
            f"constrained_insert works on a single layer, got {sorted(layers)}"
        )
    layer = layers.pop() if layers else 0

    n_cores = len(existing)
    n_new = len(new_components)
    if n_new == 0:
        return list(existing)

    widths = [c.rect.width for c in existing] + [c.width for c in new_components]
    heights = [c.rect.height for c in existing] + [c.height for c in new_components]
    positions = [(c.rect.x, c.rect.y) for c in existing] + [
        (
            max(0.0, c.ideal_center[0] - c.width / 2.0),
            max(0.0, c.ideal_center[1] - c.height / 2.0),
        )
        for c in new_components
    ]
    ideals = [c.ideal_center for c in new_components]

    sp = positions_to_seqpair(positions, widths, heights)
    new_ids = set(range(n_cores, n_cores + n_new))

    core_anchors = [
        (c.rect.x + c.rect.width / 2.0, c.rect.y + c.rect.height / 2.0)
        for c in existing
    ]

    def evaluate(sp_: SequencePair) -> Tuple[float, float]:
        pos = seqpair_to_positions(sp_, widths, heights)
        area = max(p[0] + widths[i] for i, p in enumerate(pos)) * max(
            p[1] + heights[i] for i, p in enumerate(pos)
        )
        disp = 0.0
        for j, bid in enumerate(range(n_cores, n_cores + n_new)):
            cx = pos[bid][0] + widths[bid] / 2.0
            cy = pos[bid][1] + heights[bid] / 2.0
            disp += abs(cx - ideals[j][0]) + abs(cy - ideals[j][1])
        for i in range(n_cores):
            cx = pos[i][0] + widths[i] / 2.0
            cy = pos[i][1] + heights[i] / 2.0
            disp += abs(cx - core_anchors[i][0]) + abs(cy - core_anchors[i][1])
        return area, disp

    area0, disp0 = evaluate(sp)
    area_scale = area0 if area0 > 0 else 1.0
    diag = max(c.rect.x2 for c in existing) + max(c.rect.y2 for c in existing) \
        if existing else 1.0
    disp_scale = max(diag * max(1, n_cores + n_new) * 0.25, 1e-9)

    def cost(area: float, disp: float) -> float:
        return area / area_scale + displacement_weight * disp / disp_scale

    rng = make_rng(seed, "constrained-insert")
    current = cost(area0, disp0)
    best_sp, best_cost = sp, current
    temperature = initial_temperature

    for _ in range(moves):
        candidate = _relocate_new_block(sp, new_ids, rng)
        if candidate is None:
            break
        area, disp = evaluate(candidate)
        cand = cost(area, disp)
        if cand <= current or (
            temperature > 1e-12
            and rng.random() < math.exp((current - cand) / temperature)
        ):
            sp, current = candidate, cand
            if cand < best_cost:
                best_sp, best_cost = candidate, cand
        temperature *= cooling

    final_positions = seqpair_to_positions(best_sp, widths, heights)
    out: List[PlacedComponent] = []
    for i, comp in enumerate(existing):
        x, y = final_positions[i]
        out.append(
            PlacedComponent(
                name=comp.name, kind=comp.kind,
                rect=comp.rect.moved_to(x, y), layer=layer,
            )
        )
    for j, comp in enumerate(new_components):
        x, y = final_positions[n_cores + j]
        out.append(
            PlacedComponent(
                name=comp.name, kind=comp.kind,
                rect=Rect(x, y, comp.width, comp.height), layer=layer,
            )
        )
    return out


def _relocate_new_block(
    sp: SequencePair, new_ids: Set[int], rng
) -> Optional[SequencePair]:
    """Move one network-component entry to a new slot in one/both sequences."""
    if not new_ids:
        return None
    block = rng.choice(sorted(new_ids))
    which = rng.randrange(3)  # 0: positive, 1: negative, 2: both

    positive = list(sp.positive)
    negative = list(sp.negative)
    if which in (0, 2):
        positive.remove(block)
        positive.insert(rng.randrange(len(positive) + 1), block)
    if which in (1, 2):
        negative.remove(block)
        negative.insert(rng.randrange(len(negative) + 1), block)
    return SequencePair(positive=tuple(positive), negative=tuple(negative))


# --------------------------------------------------------------------------
# the naive custom NoC inserter (pre-prefilter insert_components, verbatim)
# --------------------------------------------------------------------------

def naive_insert_components(
    existing: Sequence[PlacedComponent],
    new_components: Sequence[NewComponent],
    *,
    search_radius: float = 1.5,
    grid_step: float = 0.1,
    report: Optional[InsertionReport] = None,
) -> List[PlacedComponent]:
    """Custom NoC insertion with the pre-prefilter hot path (reference).

    Verbatim ``insert_components`` from before the window prefilter,
    including its layer guess for an empty ``existing``.

    Args:
        existing: Already-placed components of one layer (all same layer).
        new_components: Components to add, in insertion order. As in the
            paper, earlier insertions may create gaps that later ones reuse.
        search_radius: Radius (mm) of the free-space search around the ideal
            position — "the area in which we look for free space is the same
            for all of the switches, as it is given as a constant".
        grid_step: Resolution of the candidate-position search.
        report: Optional statistics accumulator.

    Returns:
        A new component list: every input component (possibly displaced)
        plus the new ones, overlap-free.
    """
    layers = {c.layer for c in existing}
    if len(layers) > 1:
        raise FloorplanError(
            f"insert_components works on a single layer, got layers {sorted(layers)}"
        )
    layer = layers.pop() if layers else 0
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

        spot = _naive_find_free_spot(target, rects, search_radius, grid_step)
        if spot is not None:
            rects.append(spot)
            report.placed_free += 1
        else:
            rects.append(target)
            _naive_displace(rects, len(rects) - 1)
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


def _naive_find_free_spot(
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
    """
    if not _naive_overlaps_any(target, placed):
        return target

    steps = max(1, int(math.ceil(search_radius / grid_step)))
    offsets = []
    for i in range(-steps, steps + 1):
        for j in range(-steps, steps + 1):
            if i == 0 and j == 0:
                continue
            dx, dy = i * grid_step, j * grid_step
            offsets.append((abs(dx) + abs(dy), dx, dy))
    offsets.sort()
    for _dist, dx, dy in offsets:
        x = target.x + dx
        y = target.y + dy
        if x < 0 or y < 0:
            continue
        candidate = target.moved_to(x, y)
        if not _naive_overlaps_any(candidate, placed):
            return candidate
    return None


def _naive_overlaps_any(rect: Rect, placed: Sequence[Rect]) -> bool:
    return any(rects_overlap(rect, other) for other in placed)


def _naive_displace(rects: List[Rect], new_index: int) -> None:
    """Resolve overlaps with ``rects[new_index]`` by cascading pushes.

    Tries pushing in +x and +y, keeps the direction with the smaller total
    displacement (the paper displaces "in the x or y direction").
    """
    for_x = _naive_cascade(rects, new_index, axis=0)
    for_y = _naive_cascade(rects, new_index, axis=1)
    chosen = for_x if for_x[0] <= for_y[0] else for_y
    _, moved = chosen
    for idx, rect in moved.items():
        rects[idx] = rect


def _naive_cascade(
    rects: Sequence[Rect], new_index: int, axis: int
) -> Tuple[float, dict]:
    """Simulate pushing all conflicting blocks along ``axis`` (0=x, 1=y).

    Returns (total displacement, {index: new rect}). The new component at
    ``new_index`` never moves. Pushes strictly increase the pushed
    coordinate, so the cascade terminates.
    """
    working = {i: r for i, r in enumerate(rects)}
    total = 0.0
    # Worklist of blocks that may overlap something and must be checked
    # against all others; start from the inserted block.
    frontier = [new_index]
    guard = 0
    while frontier:
        guard += 1
        if guard > 10_000:
            raise FloorplanError("displacement cascade failed to converge")
        pusher = frontier.pop(0)
        pr = working[pusher]
        for idx in sorted(working):
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
        i: r for i, r in working.items() if r is not rects[i] and i != new_index
    }
    return total, changed
