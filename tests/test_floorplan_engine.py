"""Incremental floorplan annealing engine (repro.floorplan.engine).

The contract under test: the incremental evaluator and the annealing loops
built on it are *bit-identical* to the frozen naive baselines of
:mod:`repro.floorplan.reference` — same per-move area/wirelength, same
accepted-move trajectory, same final floorplan.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.floorplan.annealer import anneal_floorplan
from repro.floorplan.constrained import constrained_insert
from repro.floorplan.engine import _AnnealState
from repro.floorplan.geometry import Rect
from repro.floorplan.inserter import NewComponent
from repro.floorplan.placement import PlacedComponent
from repro.floorplan.reference import (
    naive_anneal_floorplan,
    naive_constrained_insert,
    naive_evaluate_floorplan,
)
from repro.floorplan.sequence_pair import SequencePair


def _draw_problem(data, max_n=10):
    n = data.draw(st.integers(min_value=2, max_value=max_n))
    widths = [
        data.draw(st.floats(min_value=0.2, max_value=5.0)) for _ in range(n)
    ]
    heights = [
        data.draw(st.floats(min_value=0.2, max_value=5.0)) for _ in range(n)
    ]
    nets = {}
    for _ in range(data.draw(st.integers(min_value=0, max_value=2 * n))):
        a = data.draw(st.integers(min_value=0, max_value=n - 1))
        b = data.draw(st.integers(min_value=0, max_value=n - 1))
        if a != b:
            nets[(a, b)] = data.draw(st.floats(min_value=0.1, max_value=500.0))
    anchors = {}
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        a = data.draw(st.integers(min_value=0, max_value=n - 1))
        point = (
            data.draw(st.floats(min_value=0.0, max_value=8.0)),
            data.draw(st.floats(min_value=0.0, max_value=8.0)),
        )
        anchors[(a, point)] = data.draw(st.floats(min_value=0.1, max_value=100.0))
    return n, widths, heights, nets, anchors


class TestIncrementalEvaluator:
    """Property: the state matches the naive evaluator on any move sequence."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_naive_reference_on_random_moves(self, data):
        n, widths, heights, nets, anchors = _draw_problem(data)
        positive = list(data.draw(st.permutations(range(n))))
        negative = list(data.draw(st.permutations(range(n))))
        sp = SequencePair(positive=tuple(positive), negative=tuple(negative))
        state = _AnnealState(sp, widths, heights, nets, anchors)

        # Initial evaluation matches a from-scratch one.
        area, wl, pos = naive_evaluate_floorplan(
            sp, widths, heights, nets, anchors
        )
        assert state.area == area
        assert state.wirelength == wl
        assert state.positions() == pos

        # Mirror every move on plain lists; after each move the state's
        # evaluation must equal the naive evaluation of the mirrored pair.
        for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
            kind = data.draw(st.integers(min_value=0, max_value=4))
            state.begin_move()
            if kind == 0:
                i = data.draw(st.integers(min_value=0, max_value=n - 1))
                j = data.draw(st.integers(min_value=0, max_value=n - 1))
                state.swap_positive(i, j)
                positive[i], positive[j] = positive[j], positive[i]
            elif kind == 1:
                i = data.draw(st.integers(min_value=0, max_value=n - 1))
                j = data.draw(st.integers(min_value=0, max_value=n - 1))
                state.swap_negative(i, j)
                negative[i], negative[j] = negative[j], negative[i]
            elif kind == 2:
                i = data.draw(st.integers(min_value=0, max_value=n - 1))
                j = data.draw(st.integers(min_value=0, max_value=n - 1))
                u, v = positive[i], positive[j]
                state.swap_both(i, j)
                positive[i], positive[j] = v, u
                ni, nj = negative.index(v), negative.index(u)
                negative[ni], negative[nj] = negative[nj], negative[ni]
            else:
                block = data.draw(st.integers(min_value=0, max_value=n - 1))
                slot = data.draw(st.integers(min_value=0, max_value=n - 1))
                seq = positive if kind == 3 else negative
                if kind == 3:
                    state.relocate_positive(block, slot)
                else:
                    state.relocate_negative(block, slot)
                seq.remove(block)
                seq.insert(slot, block)

            cand_area, cand_wl = state.evaluate()
            mirror = SequencePair(
                positive=tuple(positive), negative=tuple(negative)
            )
            ref_area, ref_wl, ref_pos = naive_evaluate_floorplan(
                mirror, widths, heights, nets, anchors
            )
            assert cand_area == ref_area
            assert cand_wl == ref_wl
            assert state.sequences() == (mirror.positive, mirror.negative)

            if data.draw(st.booleans()):
                state.commit()
                assert state.positions() == ref_pos
            else:
                # Revert must restore sequences *and* cached terms exactly:
                # a no-op re-evaluation reproduces the pre-move values.
                state.revert()
                sp_now = SequencePair(
                    positive=tuple(state.positive),
                    negative=tuple(state.negative),
                )
                positive = list(sp_now.positive)
                negative = list(sp_now.negative)
                ref_area, ref_wl, _ = naive_evaluate_floorplan(
                    sp_now, widths, heights, nets, anchors
                )
                state.begin_move()
                area_now, wl_now = state.evaluate()
                assert area_now == ref_area
                assert wl_now == ref_wl
                state.revert()

    def test_rejects_length_mismatch(self):
        sp = SequencePair.identity(3)
        with pytest.raises(ValueError):
            _AnnealState(sp, [1.0, 1.0], [1.0, 1.0, 1.0])


class TestAnnealerTrajectory:
    """The full annealing loop is bit-identical to the frozen baseline."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 23])
    def test_matches_naive_trajectory(self, seed):
        widths = [1.0, 2.0, 1.5, 1.0, 0.8, 1.3, 0.9, 1.7, 1.1, 0.6, 1.4, 2.2]
        heights = [1.5, 1.0, 1.2, 0.9, 1.1, 0.7, 1.6, 1.0, 1.3, 0.8, 1.0, 1.2]
        nets = {(0, 5): 100.0, (1, 4): 55.5, (2, 7): 210.0, (3, 9): 80.0,
                (6, 11): 140.0, (0, 10): 33.0, (5, 8): 61.0}
        anchors = {(2, (0.0, 0.0)): 50.0, (9, (4.0, 4.0)): 25.0}
        kwargs = dict(wirelength_weight=2.0, seed=seed, moves=500)
        fast = anneal_floorplan(widths, heights, nets, anchors, **kwargs)
        slow = naive_anneal_floorplan(widths, heights, nets, anchors, **kwargs)
        assert fast.positions == slow.positions
        assert fast.sequence_pair == slow.sequence_pair
        assert fast.area == slow.area
        assert fast.wirelength == slow.wirelength
        assert fast.cost == slow.cost
        assert fast.moves_evaluated == slow.moves_evaluated

    def test_matches_naive_without_nets(self):
        widths = heights = [1.0] * 9
        fast = anneal_floorplan(widths, heights, moves=400, seed=3)
        slow = naive_anneal_floorplan(widths, heights, moves=400, seed=3)
        assert fast == slow

    def test_returns_fresh_result(self):
        # The frozen-intent best snapshot is never mutated after the loop:
        # two calls return equal but distinct result objects, and the move
        # counter lands on the full budget without touching the snapshot.
        widths = [1.0, 2.0, 1.0, 1.5]
        heights = [1.0, 1.0, 2.0, 1.5]
        a = anneal_floorplan(widths, heights, moves=200, seed=7)
        b = anneal_floorplan(widths, heights, moves=200, seed=7)
        assert a == b
        assert a is not b
        assert a.positions is not b.positions
        assert a.moves_evaluated == 200


class TestConstrainedTrajectory:
    @pytest.mark.parametrize("seed", [0, 2, 11])
    def test_matches_naive_insertion(self, seed):
        cores = [
            PlacedComponent(f"core{i}", "core", Rect(1.1 * i, 0.2 * (i % 3), 1.0, 1.0), 0)
            for i in range(6)
        ]
        new = [
            NewComponent("sw0", "switch", 0.4, 0.4, (1.5, 0.8)),
            NewComponent("sw1", "switch", 0.3, 0.3, (4.0, 0.5)),
            NewComponent("sw2", "switch", 0.5, 0.5, (2.8, 1.4)),
        ]
        fast = constrained_insert(cores, new, layer=0, seed=seed, moves=400)
        slow = naive_constrained_insert(cores, new, seed=seed, moves=400)
        assert [(c.name, c.rect, c.layer) for c in fast] == \
            [(c.name, c.rect, c.layer) for c in slow]
