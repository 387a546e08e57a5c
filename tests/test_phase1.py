"""Phase 1 candidate generation (repro.core.phase1, Algorithm 1)."""

from repro.core.config import SynthesisConfig
from repro.core.phase1 import phase1_candidate, switch_count_bounds
from repro.graphs.comm_graph import build_comm_graph
from repro.spec.comm_spec import CommSpec, TrafficFlow
from repro.spec.core_spec import Core, CoreSpec


def _graph():
    cores = CoreSpec(cores=[
        Core(f"C{i}", 1, 1, 1.5 * (i % 3), 1.5 * (i // 3), i % 2)
        for i in range(6)
    ])
    comm = CommSpec(flows=[
        TrafficFlow("C0", "C1", 500, 8),   # cross-layer heavy
        TrafficFlow("C2", "C4", 300, 8),   # intra-layer 0
        TrafficFlow("C3", "C5", 200, 8),   # intra-layer 1
        TrafficFlow("C1", "C3", 100, 8),
    ])
    return build_comm_graph(cores, comm)


class TestBounds:
    def test_full_range_default(self):
        g = _graph()
        assert switch_count_bounds(g, SynthesisConfig()) == (1, 6)

    def test_clipped_by_config(self):
        g = _graph()
        cfg = SynthesisConfig(switch_count_range=(2, 4))
        assert switch_count_bounds(g, cfg) == (2, 4)

    def test_clipped_to_core_count(self):
        g = _graph()
        cfg = SynthesisConfig(switch_count_range=(2, 50))
        assert switch_count_bounds(g, cfg) == (2, 6)


class TestCandidates:
    def test_one_candidate_per_count(self):
        g = _graph()
        cands = [phase1_candidate(g, 0.5, "mean", c) for c in range(1, 7)]
        assert [c.num_switches for c in cands] == [1, 2, 3, 4, 5, 6]
        assert all(c.phase == "phase1" and c.theta is None for c in cands)

    def test_blocks_balanced(self):
        g = _graph()
        a = phase1_candidate(g, 0.5, "mean", 3)
        sizes = sorted(len(b) for b in a.blocks)
        assert sizes == [2, 2, 2]

    def test_heavy_pair_shares_switch(self):
        g = _graph()
        a = phase1_candidate(g, 1.0, "mean", 3)
        c2s = a.core_to_switch
        assert c2s[0] == c2s[1]  # the 500 MB/s pair

    def test_cross_layer_block_gets_intermediate_layer(self):
        g = _graph()
        a = phase1_candidate(g, 0.5, "mean", 3)
        # All switch layers must be valid layer indices.
        assert all(0 <= l < 2 for l in a.switch_layers)

    def test_scaled_candidate_prefers_same_layer(self):
        g = _graph()
        scaled = phase1_candidate(g, 1.0, "mean", 2, theta=15.0)
        assert scaled.theta == 15.0
        # With strong scaling the two blocks align with the two layers.
        for block in scaled.blocks:
            layers = {g.layers[c] for c in block}
            assert len(layers) == 1

    def test_deterministic(self):
        g = _graph()
        a = phase1_candidate(g, 0.5, "mean", 3)
        b = phase1_candidate(g, 0.5, "mean", 3)
        assert a.blocks == b.blocks
