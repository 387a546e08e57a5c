"""Frozen pre-optimisation floorplan annealing: the naive baselines.

This module preserves, verbatim, the two annealing loops as they existed
before the :class:`~repro.floorplan.engine._AnnealState` overhaul: every
move rebuilds a validated :class:`SequencePair`, reruns the full numpy
longest-path packing via :func:`seqpair_to_positions` and re-sums every
net. It exists for two reasons (the :mod:`repro.engine.reference` pattern):

* **regression** — tests assert the incremental
  :func:`repro.floorplan.annealer.anneal_floorplan` and
  :func:`repro.floorplan.constrained.constrained_insert` produce
  *bit-identical* accepted-move trajectories and final floorplans;
* **benchmarking** — ``benchmarks/bench_floorplan_anneal.py`` asserts the
  incremental annealer's moves-per-second floor against this module, and
  the claim only means something against the genuine old code (the
  end-to-end benchmark, ``python3 perfbench/run.py``, times the flow).

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
from repro.floorplan.geometry import Rect
from repro.floorplan.inserter import NewComponent
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
