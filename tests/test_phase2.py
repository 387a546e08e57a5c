"""Phase 2 candidate generation (repro.core.phase2, Algorithm 2)."""

import pytest

from repro.core.config import SynthesisConfig
from repro.core.phase2 import (
    minimum_switches_per_layer,
    phase2_candidate,
    phase2_switch_counts,
)
from repro.errors import SynthesisError
from repro.graphs.comm_graph import build_comm_graph
from repro.models.library import default_library
from repro.spec.comm_spec import CommSpec, TrafficFlow
from repro.spec.core_spec import Core, CoreSpec


def _graph(n=9, layers=3):
    cores = CoreSpec(cores=[
        Core(f"C{i}", 1, 1, 1.5 * (i % 3), 1.5 * (i // 3), i % layers)
        for i in range(n)
    ])
    comm = CommSpec(flows=[
        TrafficFlow("C0", "C3", 300, 8),
        TrafficFlow("C1", "C4", 200, 8),
        TrafficFlow("C3", "C6", 250, 8),
        TrafficFlow("C2", "C5", 150, 8),
    ])
    return build_comm_graph(cores, comm)


class TestMinimumSwitches:
    def test_small_layers_need_one(self):
        g = _graph()
        mins = minimum_switches_per_layer(g, SynthesisConfig(), default_library())
        assert mins == [1, 1, 1]

    def test_large_layer_needs_more(self):
        # 14 cores in one layer; max switch size at 400 MHz is 11.
        cores = CoreSpec(cores=[
            Core(f"C{i}", 1, 1, 1.2 * (i % 4), 1.2 * (i // 4), 0)
            for i in range(14)
        ])
        comm = CommSpec(flows=[TrafficFlow("C0", "C1", 100, 8)])
        g = build_comm_graph(cores, comm)
        mins = minimum_switches_per_layer(g, SynthesisConfig(), default_library())
        assert mins == [2]


class TestCandidates:
    def test_every_core_assigned_same_layer_switch(self):
        g = _graph()
        a = phase2_candidate(g, 0.5, (1, 1, 1))
        assert a.phase == "phase2"
        c2s = a.core_to_switch
        for core in range(g.n):
            sw = c2s[core]
            assert a.switch_layers[sw] == g.layers[core]

    def test_increment_grows_all_layers(self):
        g = _graph()
        plans = phase2_switch_counts(g, SynthesisConfig(), default_library())
        assert plans[:2] == [(1, 1, 1), (2, 2, 2)]  # +1 per layer

    def test_increment_capped_at_cores_per_layer(self):
        # Layer sizes 4, 3, 2: a layer stops growing at one switch per core.
        cores = CoreSpec(cores=[
            Core(f"C{i}", 1, 1, 1.5 * (i % 3), 1.5 * (i // 3), layer)
            for i, layer in enumerate((0, 0, 0, 0, 1, 1, 1, 2, 2))
        ])
        g = build_comm_graph(cores, CommSpec(flows=[
            TrafficFlow("C0", "C4", 300, 8),
            TrafficFlow("C5", "C7", 200, 8),
        ]))
        plans = phase2_switch_counts(g, SynthesisConfig(), default_library())
        assert plans == [(1, 1, 1), (2, 2, 2), (3, 3, 2), (4, 3, 2)]
        a_max = phase2_candidate(g, 0.5, plans[-1])
        assert a_max.num_switches == g.n  # one switch per core

    def test_candidate_sweep_sizes(self):
        g = _graph()
        plans = phase2_switch_counts(g, SynthesisConfig(), default_library())
        sizes = [phase2_candidate(g, 0.5, p).num_switches for p in plans]
        assert sizes == [sum(p) for p in plans] == [3, 6, 9]

    def test_switch_count_range_filter(self):
        g = _graph()
        cfg = SynthesisConfig(switch_count_range=(4, 8))
        assert phase2_switch_counts(g, cfg, default_library()) == [(2, 2, 2)]

    def test_empty_layer_rejected(self):
        cores = CoreSpec(cores=[
            Core("A", 1, 1, 0, 0, 0),
            Core("B", 1, 1, 2, 0, 2),
        ])
        comm = CommSpec(flows=[TrafficFlow("A", "B", 100, 8)])
        # Layer 1 is empty: contiguity is normally enforced by
        # validate_specs; phase2 raises its own error.
        from repro.graphs.comm_graph import CommGraph

        g = build_comm_graph(cores, comm)
        with pytest.raises(SynthesisError):
            minimum_switches_per_layer(g, SynthesisConfig(), default_library())
