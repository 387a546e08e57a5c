"""Sequence-pair simulated-annealing floorplanner (Parquet stand-in).

Used to generate the *input* core floorplans of the benchmarks — the paper
obtains those "using existing tools [38]" with area and wire-length as the
objectives — and, through :mod:`repro.floorplan.constrained`, as the standard
floorplanner baseline of Sec. VIII-D.

Cost is ``area + wirelength_weight * HPWL-like bandwidth-weighted Manhattan
wirelength``; both terms are normalised by their initial values so the weight
is dimensionless. Moves are the three classic sequence-pair perturbations
(swap in Gamma+, swap in Gamma-, swap in both). Rotation moves are omitted:
core aspect ratios are part of the benchmark inputs.

The annealing loop runs on the incremental
:class:`~repro.floorplan.engine._AnnealState` evaluator — in-place moves
with undo, allocation-free packing and delta wirelength — and reproduces
the frozen naive baseline of :mod:`repro.floorplan.reference` bit for bit
(asserted by the regression suite). Like Parquet in the paper, each call
is one seeded anneal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.floorplan.engine import _AnnealState
from repro.floorplan.sequence_pair import SequencePair
from repro.rng import make_rng

#: Wirelength "nets": ((block_i, block_j) -> weight); external attractors are
#: ((block_i, (x, y)) -> weight) entries keyed by index and a fixed point.
PairNets = Mapping[Tuple[int, int], float]
AnchorNets = Mapping[Tuple[int, Tuple[float, float]], float]


@dataclass
class FloorplanResult:
    """Output of :func:`anneal_floorplan`."""

    positions: List[Tuple[float, float]]
    sequence_pair: SequencePair
    area: float
    wirelength: float
    cost: float
    moves_evaluated: int


def anneal_floorplan(
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
    """Floorplan ``n`` blocks minimising area + weighted wirelength.

    Args:
        widths/heights: Block dimensions (mm), indexed 0..n-1.
        nets: Bandwidth-weighted two-pin nets between blocks; wirelength is
            the weighted Manhattan distance between block centres.
        anchors: Nets from a block to a fixed external point — used to pull
            cores towards the positions of their vertical neighbours when
            floorplanning a 3-D stack layer by layer.
        wirelength_weight: Relative weight of wirelength vs. area (both are
            normalised by the initial solution's values).
        seed: RNG seed; the run is fully deterministic.
        moves: Number of annealing moves.
        initial_temperature / cooling: Geometric schedule in normalised-cost
            units.
        initial_sp: Optional starting sequence pair (default: grid).

    Returns:
        The best found :class:`FloorplanResult` (not merely the final one).
    """
    n = len(widths)
    if n == 0:
        raise ValueError("cannot floorplan zero blocks")
    if len(heights) != n:
        raise ValueError("widths and heights must have equal length")
    nets = dict(nets or {})
    anchors = dict(anchors or {})

    sp = initial_sp if initial_sp is not None else SequencePair.grid(n)
    if sp.n != n:
        raise ValueError(f"initial sequence pair has {sp.n} blocks, expected {n}")

    # The move/acceptance structure — RNG draw order, cost expression,
    # acceptance test — mirrors repro.floorplan.reference
    # .naive_anneal_floorplan exactly; only the evaluation is incremental.
    rng = make_rng(seed, "floorplan-anneal")
    state = _AnnealState(sp, widths, heights, nets, anchors)

    area0, wl0 = state.area, state.wirelength
    area_scale = area0 if area0 > 0 else 1.0
    wl_scale = wl0 if wl0 > 0 else 1.0

    def cost_of(area: float, wl: float) -> float:
        return area / area_scale + wirelength_weight * wl / wl_scale

    current_cost = cost_of(area0, wl0)
    best_cost = current_cost
    best_area, best_wl = area0, wl0
    best_positions = state.positions()
    best_sequences = state.sequences()

    temperature = initial_temperature
    evaluated = 0
    if n > 1:
        randrange = rng.randrange
        random = rng.random
        exp = math.exp
        for _ in range(moves):
            i, j = randrange(n), randrange(n)
            while j == i:
                j = randrange(n)
            move = randrange(3)
            state.begin_move()
            if move == 0:
                state.swap_positive(i, j)
            elif move == 1:
                state.swap_negative(i, j)
            else:
                state.swap_both(i, j)
            area, wl = state.evaluate()
            cand_cost = cost_of(area, wl)
            evaluated += 1
            if cand_cost <= current_cost or (
                temperature > 1e-12
                and random() < exp((current_cost - cand_cost) / temperature)
            ):
                state.commit()
                current_cost = cand_cost
                if cand_cost < best_cost:
                    best_cost = cand_cost
                    best_area, best_wl = area, wl
                    best_positions = state.positions()
                    best_sequences = state.sequences()
            else:
                state.revert()
            temperature *= cooling

    return FloorplanResult(
        positions=best_positions,
        sequence_pair=SequencePair(
            positive=best_sequences[0], negative=best_sequences[1]
        ),
        area=best_area,
        wirelength=best_wl,
        cost=best_cost,
        moves_evaluated=evaluated,
    )
