"""Balanced k-way min-cut partitioner (repro.graphs.partition)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.partition import cut_value, kway_min_cut


def _ring(n, w=1.0):
    return {(i, (i + 1) % n): w for i in range(n)}


class TestBasics:
    def test_k1_single_block(self):
        assert kway_min_cut(5, _ring(5), 1) == [list(range(5))]

    def test_kn_singletons(self):
        blocks = kway_min_cut(4, _ring(4), 4)
        assert blocks == [[0], [1], [2], [3]]

    def test_partition_covers_all_vertices(self):
        blocks = kway_min_cut(10, _ring(10), 3)
        flat = sorted(v for b in blocks for v in b)
        assert flat == list(range(10))

    def test_balance(self):
        for k in (2, 3, 4, 7):
            blocks = kway_min_cut(10, _ring(10), k)
            sizes = sorted(len(b) for b in blocks)
            assert sizes[-1] - sizes[0] <= 1

    def test_deterministic(self):
        a = kway_min_cut(12, _ring(12), 3)
        b = kway_min_cut(12, _ring(12), 3)
        assert a == b

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            kway_min_cut(5, {}, 0)
        with pytest.raises(ValueError):
            kway_min_cut(5, {}, 6)

    def test_invalid_edges(self):
        with pytest.raises(ValueError):
            kway_min_cut(3, {(0, 5): 1.0}, 2)
        with pytest.raises(ValueError):
            kway_min_cut(3, {(0, 1): -1.0}, 2)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=r"edge \(0, 1\) has non-finite"):
                kway_min_cut(4, {(2, 3): 1.0, (0, 1): bad}, 2)
        # Both orientations sum past half the float range: D-value updates
        # double a pair weight, so it must stay finite when doubled.
        with pytest.raises(ValueError, match=r"edge \(1, 0\)"):
            kway_min_cut(4, {(0, 1): 5e307, (1, 0): 5e307}, 2)


class TestQuality:
    def test_two_cliques_split_perfectly(self):
        # Two 4-cliques joined by one weak edge: the min cut is that edge.
        weights = {}
        for group in ([0, 1, 2, 3], [4, 5, 6, 7]):
            for i in range(4):
                for j in range(i + 1, 4):
                    weights[(group[i], group[j])] = 10.0
        weights[(3, 4)] = 1.0
        blocks = kway_min_cut(8, weights, 2)
        assert sorted(map(sorted, blocks)) == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert cut_value(8, weights, blocks) == pytest.approx(1.0)

    def test_ring_cut_is_two_edges(self):
        blocks = kway_min_cut(8, _ring(8), 2)
        # Cutting a ring into two arcs severs exactly 2 edges.
        assert cut_value(8, _ring(8), blocks) == pytest.approx(2.0)

    def test_heavy_pair_stays_together(self):
        weights = {(0, 1): 100.0, (2, 3): 100.0, (0, 2): 1.0, (1, 3): 1.0}
        blocks = kway_min_cut(4, weights, 2)
        owner = {v: i for i, b in enumerate(blocks) for v in b}
        assert owner[0] == owner[1]
        assert owner[2] == owner[3]

    def test_disconnected_graph_ok(self):
        blocks = kway_min_cut(6, {(0, 1): 5.0}, 3)
        assert sorted(len(b) for b in blocks) == [2, 2, 2]

    def test_directed_weights_summed(self):
        # (0,1) and (1,0) both present: pair weight is their sum.
        weights = {(0, 1): 3.0, (1, 0): 4.0, (1, 2): 1.0}
        blocks = [[0, 2], [1]]
        assert cut_value(3, weights, blocks) == pytest.approx(8.0)


class TestCutValue:
    def test_no_cut_when_one_block(self):
        assert cut_value(4, _ring(4), [[0, 1, 2, 3]]) == 0.0

    def test_rejects_double_assignment(self):
        with pytest.raises(ValueError):
            cut_value(3, {}, [[0, 1], [1, 2]])

    def test_rejects_incomplete_cover(self):
        with pytest.raises(ValueError):
            cut_value(3, {}, [[0], [1]])

    def test_self_loops_ignored(self):
        assert cut_value(2, {(0, 0): 9.0}, [[0], [1]]) == 0.0


class TestHypothesis:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=16),
        k=st.integers(min_value=1, max_value=5),
        data=st.data(),
    )
    def test_partition_always_valid(self, n, k, data):
        if k > n:
            k = n
        n_edges = data.draw(st.integers(min_value=0, max_value=2 * n))
        weights = {}
        for _ in range(n_edges):
            i = data.draw(st.integers(min_value=0, max_value=n - 1))
            j = data.draw(st.integers(min_value=0, max_value=n - 1))
            w = data.draw(st.floats(min_value=0.0, max_value=100.0))
            if i != j:
                weights[(i, j)] = w
        blocks = kway_min_cut(n, weights, k)
        assert len(blocks) == k
        flat = sorted(v for b in blocks for v in b)
        assert flat == list(range(n))
        sizes = [len(b) for b in blocks]
        assert max(sizes) - min(sizes) <= 1

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=4, max_value=12))
    def test_refined_cut_not_worse_than_round_robin(self, n):
        weights = _ring(n, 2.0)
        blocks = kway_min_cut(n, weights, 2)
        round_robin = [[v for v in range(n) if v % 2 == 0],
                       [v for v in range(n) if v % 2 == 1]]
        assert cut_value(n, weights, blocks) <= cut_value(n, weights, round_robin)
