"""Alpha sweep (Def. 3) on the engine's grid path:
``run_tasks(build_tasks(..., ParameterGrid(alphas=...)))``."""

import pytest

from repro.core.config import SynthesisConfig
from repro.engine import ParameterGrid, build_tasks, run_tasks


def sweep_alpha(core_spec, comm_spec, alphas, config):
    tasks = build_tasks(
        core_spec, comm_spec, ParameterGrid(alphas=alphas), config
    )
    return {r.key.alpha: r.result for r in run_tasks(tasks)}


class TestAlphaSweep:
    def test_results_per_alpha(self, tiny_specs):
        core_spec, comm_spec = tiny_specs
        cfg = SynthesisConfig(max_ill=10, switch_count_range=(2, 3))
        results = sweep_alpha(core_spec, comm_spec, (0.0, 0.5, 1.0), config=cfg)
        assert set(results) == {0.0, 0.5, 1.0}
        for result in results.values():
            assert result.points

    def test_alpha_changes_partitions(self):
        """α = 1 clusters by bandwidth, α = 0 by latency tightness; a design
        where those disagree must produce different assignments."""
        from tests.conftest import grid_core_spec
        from repro.spec.comm_spec import CommSpec, TrafficFlow

        core_spec = grid_core_spec(6, 1)
        comm_spec = CommSpec(flows=[
            # Heavy but latency-relaxed pair.
            TrafficFlow("C0", "C1", 1000, 40),
            # Light but latency-critical pair.
            TrafficFlow("C2", "C3", 50, 2.0),
            TrafficFlow("C4", "C5", 200, 20),
            TrafficFlow("C1", "C2", 60, 30),
            TrafficFlow("C3", "C4", 60, 30),
        ])
        from repro.core.phase1 import phase1_candidate
        from repro.graphs.comm_graph import build_comm_graph

        graph = build_comm_graph(core_spec, comm_spec)
        a_bw = phase1_candidate(graph, 1.0, "mean", 3)
        a_lat = phase1_candidate(graph, 0.0, "mean", 3)
        # Bandwidth clustering puts C0+C1 together; latency clustering puts
        # C2+C3 together.
        assert a_bw.core_to_switch[0] == a_bw.core_to_switch[1]
        assert a_lat.core_to_switch[2] == a_lat.core_to_switch[3]

    def test_config_alpha_recorded(self, tiny_specs):
        core_spec, comm_spec = tiny_specs
        cfg = SynthesisConfig(max_ill=10, switch_count_range=(2, 2))
        results = sweep_alpha(core_spec, comm_spec, (0.3,), config=cfg)
        point = results[0.3].best_power()
        assert point.config.alpha == pytest.approx(0.3)
