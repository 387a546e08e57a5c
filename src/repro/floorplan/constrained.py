"""The "constrained standard floorplanner" baseline (Sec. VIII-D).

The paper compares its custom insertion routine against Parquet [38]
"modified in order to constrain it from swapping blocks, so that the relative
positions of the input cores remain the same after the NoC insertion". We
reproduce that baseline with our sequence-pair annealer: the cores' relative
order in both sequences is frozen; annealing moves only relocate the network
components within the sequences. The cost minimised is packed area plus the
displacement of the network components from their LP-ideal positions.

Because the sequence-pair packing re-compacts all blocks, core *absolute*
positions shift even though their relative order is preserved — exactly the
behaviour the paper describes as unpredictable and often poor.

The annealing loop runs on the incremental
:class:`~repro.floorplan.engine._AnnealState` evaluator: the displacement
penalty is expressed as unit-weight anchor nets (one per network component
towards its LP-ideal centre, one per core towards its input position), so a
relocation move only recomputes the terms of blocks whose packed position
actually changed. The loop is bit-identical to the frozen
:func:`repro.floorplan.reference.naive_constrained_insert` baseline.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.errors import FloorplanError
from repro.floorplan.engine import _AnnealState
from repro.floorplan.geometry import Rect
from repro.floorplan.inserter import NewComponent
from repro.floorplan.placement import PlacedComponent
from repro.floorplan.sequence_pair import (
    SequencePair,
    positions_to_seqpair,
    seqpair_to_positions,
)
from repro.rng import make_rng


def constrained_insert(
    existing: Sequence[PlacedComponent],
    new_components: Sequence[NewComponent],
    *,
    layer: int,
    seed: int = 0,
    moves: int = 3000,
    displacement_weight: float = 1.0,
    initial_temperature: float = 1.0,
    cooling: float = 0.995,
) -> List[PlacedComponent]:
    """Insert network components with the constrained-annealer baseline.

    Args/returns mirror :func:`repro.floorplan.inserter.insert_components`.
    RNG draw order, cost expression and acceptance test mirror the frozen
    :func:`repro.floorplan.reference.naive_constrained_insert` exactly.
    """
    layers = {c.layer for c in existing} | {layer}
    if len(layers) > 1:
        raise FloorplanError(
            f"constrained_insert works on a single layer, got "
            f"{sorted(layers)} for layer {layer}"
        )

    n_cores = len(existing)
    n_new = len(new_components)
    if n_new == 0:
        return list(existing)
    n = n_cores + n_new

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

    sp0 = positions_to_seqpair(positions, widths, heights)

    # Displacement as unit-weight anchor nets, in the naive evaluator's sum
    # order: network components towards their ideals first, then "keep the
    # cores close to their initial placement" (Sec. VIII-D).
    anchors: Dict[Tuple[int, Tuple[float, float]], float] = {}
    for j, bid in enumerate(range(n_cores, n_cores + n_new)):
        anchors[(bid, (ideals[j][0], ideals[j][1]))] = 1.0
    for i, c in enumerate(existing):
        anchors[(i, (c.rect.x + c.rect.width / 2.0,
                     c.rect.y + c.rect.height / 2.0))] = 1.0

    state = _AnnealState(sp0, widths, heights, None, anchors)
    area0, disp0 = state.area, state.wirelength
    area_scale = area0 if area0 > 0 else 1.0
    # Normalise displacement by one die diagonal per block, so the penalty
    # stays comparable to the area term regardless of the initial packing.
    diag = max(c.rect.x2 for c in existing) + max(c.rect.y2 for c in existing) \
        if existing else 1.0
    disp_scale = max(diag * max(1, n_cores + n_new) * 0.25, 1e-9)

    def cost(area: float, disp: float) -> float:
        return area / area_scale + displacement_weight * disp / disp_scale

    rng = make_rng(seed, "constrained-insert")
    current = cost(area0, disp0)
    best_cost = current
    best_sequences = state.sequences()
    temperature = initial_temperature

    new_ids_sorted = sorted(range(n_cores, n_cores + n_new))
    randrange = rng.randrange
    random = rng.random
    exp = math.exp
    for _ in range(moves):
        block = rng.choice(new_ids_sorted)
        which = randrange(3)  # 0: positive, 1: negative, 2: both
        state.begin_move()
        if which == 0 or which == 2:
            state.relocate_positive(block, randrange(n))
        if which == 1 or which == 2:
            state.relocate_negative(block, randrange(n))
        area, disp = state.evaluate()
        cand = cost(area, disp)
        if cand <= current or (
            temperature > 1e-12
            and random() < exp((current - cand) / temperature)
        ):
            state.commit()
            current = cand
            if cand < best_cost:
                best_cost = cand
                best_sequences = state.sequences()
        else:
            state.revert()
        temperature *= cooling

    best_sp = SequencePair(positive=best_sequences[0], negative=best_sequences[1])
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
