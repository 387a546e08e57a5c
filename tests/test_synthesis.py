"""End-to-end synthesis driver (repro.core.synthesis) — integration tests."""

import pytest

from repro.core.config import SynthesisConfig
from repro.core.pipeline import FlowContext
from repro.core.synthesis import synthesize
from repro.errors import SpecError
from repro.noc.deadlock import ChannelDependencyGraph
from repro.spec.comm_spec import CommSpec, TrafficFlow
from repro.spec.core_spec import Core, CoreSpec


class TestSynthesisTiny:
    def test_produces_points_for_every_feasible_count(self, tiny_specs):
        core_spec, comm_spec = tiny_specs
        result = synthesize(core_spec, comm_spec,
                            config=SynthesisConfig(max_ill=10))
        assert len(result.points) >= 4
        counts = {p.switch_count for p in result.points}
        assert 1 in counts and 6 in counts
        assert result.unmet_switch_counts == []

    def test_points_have_complete_artifacts(self, tiny_specs):
        core_spec, comm_spec = tiny_specs
        result = synthesize(core_spec, comm_spec,
                            config=SynthesisConfig(max_ill=10))
        for p in result.points:
            assert p.floorplan.is_legal()
            p.topology.validate_routes()
            assert set(p.topology.routes) == {
                (core_spec.index_of(f.src), core_spec.index_of(f.dst))
                for f in comm_spec
            }
            assert p.metrics.total_power_mw > 0
            assert p.metrics.avg_latency_cycles >= 1.0

    def test_all_points_deadlock_free(self, tiny_specs):
        core_spec, comm_spec = tiny_specs
        result = synthesize(core_spec, comm_spec,
                            config=SynthesisConfig(max_ill=10))
        for p in result.points:
            cdg = ChannelDependencyGraph()
            for (src, dst), link_ids in p.topology.routes.items():
                flow = comm_spec.flow_between(
                    core_spec.names[src], core_spec.names[dst]
                )
                cdg.add_path(link_ids, flow.message_type)
            assert cdg.is_deadlock_free()

    def test_max_ill_respected_in_all_points(self, tiny_specs):
        core_spec, comm_spec = tiny_specs
        cfg = SynthesisConfig(max_ill=4)
        result = synthesize(core_spec, comm_spec, config=cfg)
        for p in result.points:
            assert p.metrics.max_ill_used <= cfg.max_ill

    def test_latency_constraints_met_in_all_points(self, tiny_specs):
        core_spec, comm_spec = tiny_specs
        result = synthesize(core_spec, comm_spec,
                            config=SynthesisConfig(max_ill=10))
        for p in result.points:
            for flow in comm_spec:
                key = (core_spec.index_of(flow.src), core_spec.index_of(flow.dst))
                assert p.metrics.per_flow_latency[key] <= flow.latency + 1e-9

    def test_deterministic(self, tiny_specs):
        core_spec, comm_spec = tiny_specs
        cfg = SynthesisConfig(max_ill=10, seed=1)
        a = synthesize(core_spec, comm_spec, config=cfg)
        b = synthesize(core_spec, comm_spec, config=cfg)
        assert len(a.points) == len(b.points)
        for pa, pb in zip(a.points, b.points):
            assert pa.total_power_mw == pytest.approx(pb.total_power_mw)
            assert pa.assignment.blocks == pb.assignment.blocks


class TestSynthesisSmall:
    def test_three_layer_design(self, small_specs):
        core_spec, comm_spec = small_specs
        result = synthesize(core_spec, comm_spec,
                            config=SynthesisConfig(max_ill=12))
        assert not result.is_empty
        best = result.best_power()
        assert best.metrics.total_power_mw > 0
        assert best.floorplan.num_layers == 3

    def test_phase2_layer_locality(self, small_specs):
        core_spec, comm_spec = small_specs
        cfg = SynthesisConfig(max_ill=12, phase="phase2")
        result = synthesize(core_spec, comm_spec, config=cfg)
        assert not result.is_empty
        for p in result.points:
            assert p.phase == "phase2"
            for core, sw in p.topology.core_to_switch.items():
                assert p.topology.switches[sw].layer == core_spec.layer_of(core)
            # Switch links only between adjacent layers.
            for link in p.topology.links:
                if not link.is_core_link:
                    assert link.layers_crossed <= 1

    def test_phase1_vs_phase2_power_ordering(self, small_specs):
        """The Fig. 17 shape: phase 2's restriction costs power (or at
        least never helps) on cross-layer-heavy designs."""
        core_spec, comm_spec = small_specs
        p1 = synthesize(core_spec, comm_spec,
                        config=SynthesisConfig(max_ill=12, phase="phase1"))
        p2 = synthesize(core_spec, comm_spec,
                        config=SynthesisConfig(max_ill=12, phase="phase2"))
        assert not p1.is_empty and not p2.is_empty
        assert p1.best_power().total_power_mw <= p2.best_power().total_power_mw * 1.05

    def test_tight_max_ill_falls_back_or_fails(self, small_specs):
        core_spec, comm_spec = small_specs
        cfg = SynthesisConfig(max_ill=2, phase="auto")
        result = synthesize(core_spec, comm_spec, config=cfg)
        # Either valid points respecting the tight constraint, or nothing.
        for p in result.points:
            assert p.metrics.max_ill_used <= 2

    def test_switch_count_range_respected(self, small_specs):
        core_spec, comm_spec = small_specs
        cfg = SynthesisConfig(max_ill=12, switch_count_range=(2, 4))
        result = synthesize(core_spec, comm_spec, config=cfg)
        for p in result.points:
            # Indirect switches may add to the count; the assignment's
            # direct switch count stays within range.
            assert 2 <= p.assignment.num_switches <= 4

    def test_constrained_floorplanner_variant(self, small_specs):
        core_spec, comm_spec = small_specs
        cfg = SynthesisConfig(
            max_ill=12, floorplanner="constrained", switch_count_range=(2, 3)
        )
        result = synthesize(core_spec, comm_spec, config=cfg)
        for p in result.points:
            assert p.floorplan.is_legal()


class TestConstruction:
    def test_invalid_specs_rejected_at_construction(self):
        cores = CoreSpec(cores=[Core("A", 1, 1, 0, 0, 0)])
        comm = CommSpec(flows=[TrafficFlow("A", "Z", 100, 8)])
        with pytest.raises(SpecError):
            FlowContext.build(cores, comm)
        with pytest.raises(SpecError):
            synthesize(cores, comm)

    def test_objective_selection(self, tiny_specs):
        core_spec, comm_spec = tiny_specs
        result = synthesize(core_spec, comm_spec,
                            config=SynthesisConfig(max_ill=10))
        by_latency = result.best("latency")
        by_power = result.best("power")
        assert by_latency.avg_latency_cycles <= by_power.avg_latency_cycles + 1e-9
