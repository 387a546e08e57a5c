"""The staged synthesis pipeline (repro.core.pipeline)."""

from types import SimpleNamespace

import pytest

from repro.bench.registry import get_benchmark
from repro.core import pipeline as pipeline_module
from repro.core.config import SynthesisConfig
from repro.core.design_point import SynthesisResult
from repro.core.phase1 import THETA_VALUES
from repro.core.pipeline import (
    DEFAULT_STAGE_NAMES,
    CandidateOutcome,
    FloorplanStage,
    FlowContext,
    Pipeline,
    StageTimings,
    _phase1,
    _phase2,
    run_synthesis,
    vertical_link_specs,
)
from repro.core.synthesis import synthesize
from repro.engine.stagecache import StageCache
from repro.engine.store import ResultStore
from repro.errors import SynthesisError
from repro.floorplan.geometry import Rect
from repro.floorplan.placement import ChipFloorplan, PlacedComponent
from repro.models.library import default_library
from repro.noc.topology import Topology
from repro.spec.core_spec import Core, CoreSpec


class ScriptedEvaluate:
    """Stands in for the batch evaluator: records each round's requests and
    answers with the next scripted outcome list (or a builder of one)."""

    def __init__(self, *script):
        self.script = list(script)
        self.rounds = []

    def __call__(self, requests):
        self.rounds.append(list(requests))
        outcomes = self.script.pop(0)
        return outcomes(requests) if callable(outcomes) else outcomes


def fail_all(requests):
    return [CandidateOutcome(point=None)] * len(requests)


class TestPipelineConstruction:
    def test_default_stage_sequence(self):
        names = tuple(stage.name for stage in Pipeline().stages)
        assert names == DEFAULT_STAGE_NAMES


class TestStageTimings:
    def test_timings_collected_per_stage(self, tiny_specs):
        core_spec, comm_spec = tiny_specs
        timings = StageTimings()
        cfg = SynthesisConfig(max_ill=10)
        result = synthesize(core_spec, comm_spec, config=cfg, timings=timings)
        assert not result.is_empty
        # Every candidate hits the precheck; every valid point reached metrics.
        assert timings.count("precheck") >= len(result.points)
        assert timings.count("metrics") == len(result.points)
        for name in DEFAULT_STAGE_NAMES:
            assert timings.total_s(name) >= 0.0
        report = timings.report()
        for name in DEFAULT_STAGE_NAMES:
            assert name in report
        # Plus the candidate builds (graph partitioning), timed in the parent.
        assert set(timings.as_dict()) == {"partition", *DEFAULT_STAGE_NAMES}

    def test_partition_row_counts_every_candidate(self):
        bench = get_benchmark("d26_media")
        ctx = FlowContext.build(bench.core_spec_3d, bench.comm_spec)
        timings, keys = StageTimings(), []
        run_synthesis(ctx, timings=timings,
                      progress=lambda done, total, key: keys.append(key))
        assert timings.count("partition") == len(keys) > 0
        assert timings.count("precheck") == len(keys)
        assert timings.total_s("partition") > 0.0

    def test_partition_row_stays_out_of_the_stage_cache(
        self, tiny_specs, tmp_path
    ):
        core_spec, comm_spec = tiny_specs
        cache = StageCache(ResultStore(tmp_path))
        timings = StageTimings()
        synthesize(core_spec, comm_spec, config=SynthesisConfig(max_ill=10),
                   stage_cache=cache, timings=timings)
        assert timings.count("partition") > 0
        assert not timings.cached_count("partition")
        assert set(cache.stats_dict()) <= set(DEFAULT_STAGE_NAMES)

    def test_tool_records_last_timings(self, tiny_specs):
        """The spec-level ``synthesize`` passes ``timings`` through."""
        core_spec, comm_spec = tiny_specs
        timings = StageTimings()
        synthesize(core_spec, comm_spec, config=SynthesisConfig(max_ill=10),
                   timings=timings)
        assert timings.count("routing") > 0


class TestSerialParallelEquivalence:
    def test_jobs_produce_identical_results(self, tiny_specs):
        core_spec, comm_spec = tiny_specs
        cfg = SynthesisConfig(max_ill=10)
        serial = synthesize(core_spec, comm_spec, config=cfg, jobs=1)
        parallel = synthesize(core_spec, comm_spec, config=cfg, jobs=4)
        assert len(serial.points) == len(parallel.points) > 0
        for a, b in zip(serial.points, parallel.points):
            assert a.assignment == b.assignment
            assert a.metrics.total_power_mw == b.metrics.total_power_mw
            assert a.metrics.avg_latency_cycles == b.metrics.avg_latency_cycles
            assert a.metrics.per_flow_latency == b.metrics.per_flow_latency
            assert a.die_area_mm2 == b.die_area_mm2
            assert a.topology.routes == b.topology.routes
        assert serial.unmet_switch_counts == parallel.unmet_switch_counts

    def test_parallel_collects_stage_timings(self, tiny_specs):
        core_spec, comm_spec = tiny_specs
        cfg = SynthesisConfig(max_ill=10, switch_count_range=(2, 4))
        timings = StageTimings()
        result = synthesize(core_spec, comm_spec, config=cfg, jobs=2,
                            timings=timings)
        assert not result.is_empty
        assert timings.count("metrics") == len(result.points)

    def test_parallel_phase2_matches_serial(self, small_specs):
        core_spec, comm_spec = small_specs
        cfg = SynthesisConfig(max_ill=12, phase="phase2")
        serial = synthesize(core_spec, comm_spec, config=cfg, jobs=1)
        parallel = synthesize(core_spec, comm_spec, config=cfg, jobs=3)
        assert [p.assignment for p in serial.points] == \
            [p.assignment for p in parallel.points]
        assert [p.total_power_mw for p in serial.points] == \
            [p.total_power_mw for p in parallel.points]
        assert serial.unmet_switch_counts == parallel.unmet_switch_counts


class TestPhase2UnmetTracking:
    def test_count_met_by_later_candidate_is_not_unmet(self, monkeypatch):
        """Regression: a failing candidate must not leave its switch count
        in the unmet set when another candidate at that count succeeds."""
        monkeypatch.setattr(
            pipeline_module, "phase2_candidates",
            lambda graph, config, library: [
                SimpleNamespace(num_switches=n) for n in (3, 3, 4)
            ],
        )
        evaluate = ScriptedEvaluate([
            CandidateOutcome(point=None, failed_stage="routing"),
            CandidateOutcome(point=object()),  # count 3 met after all
            CandidateOutcome(point=None, failed_stage="verify"),
        ])
        result = SynthesisResult()
        ctx = SimpleNamespace(graph=None, config=None, library=None)
        _phase2(ctx, evaluate, result)
        assert len(evaluate.rounds) == 1  # a single round, no requeue
        assert len(result.points) == 1
        assert result.unmet_switch_counts == [4]

    def test_end_to_end_unmet_disjoint_from_met(self, small_specs):
        core_spec, comm_spec = small_specs
        cfg = SynthesisConfig(max_ill=12, phase="phase2")
        result = synthesize(core_spec, comm_spec, config=cfg)
        met = {p.assignment.num_switches for p in result.points}
        assert not met & set(result.unmet_switch_counts)


class TestPhase1RequeuePolicy:
    def test_theta_exhaustion_records_unmet(self, tiny_specs):
        core_spec, comm_spec = tiny_specs
        ctx = FlowContext.build(
            core_spec, comm_spec,
            config=SynthesisConfig(max_ill=10, switch_count_range=(2, 3)),
        )
        evaluate = ScriptedEvaluate(fail_all, *[fail_all] * len(THETA_VALUES))
        result = SynthesisResult()
        _phase1(ctx, evaluate, result)
        first, *retries = evaluate.rounds  # no round after the last θ
        assert [r.count for r in first] == [2, 3]
        # Every failed count requeues exactly once per θ, scaled by it.
        assert [[r.count for r in retry] for retry in retries] == (
            [[2, 3]] * len(THETA_VALUES)
        )
        assert [{r.theta for r in retry} for retry in retries] == [
            {theta} for theta in THETA_VALUES
        ]
        assert result.unmet_switch_counts == [2, 3]

    def test_success_stops_requeue(self, tiny_specs):
        core_spec, comm_spec = tiny_specs
        ctx = FlowContext.build(
            core_spec, comm_spec,
            config=SynthesisConfig(max_ill=10, switch_count_range=(2, 2)),
        )
        evaluate = ScriptedEvaluate(
            lambda requests: [CandidateOutcome(point=object())] * len(requests)
        )
        result = SynthesisResult()
        _phase1(ctx, evaluate, result)
        assert len(evaluate.rounds) == 1
        assert result.unmet_switch_counts == []


class TestVerticalLinkSpecs:
    def _two_layer_gap_topology(self):
        """One core on layer 0 attached to a switch two layers up."""
        topo = Topology(frequency_mhz=400.0, width_bits=32)
        topo.add_switch(layer=2)
        topo.attach_core(0, 0, core_layer=0)
        return topo

    def test_missing_endpoint_raises_with_name(self):
        topo = self._two_layer_gap_topology()
        core_spec = CoreSpec(cores=[Core("C0", 1, 1, 0, 0, 0)])
        with pytest.raises(SynthesisError, match="sw0"):
            vertical_link_specs(topo, ChipFloorplan(), core_spec)

    def test_present_endpoint_anchors_spec(self):
        topo = self._two_layer_gap_topology()
        core_spec = CoreSpec(cores=[Core("C0", 1, 1, 0, 0, 0)])
        floorplan = ChipFloorplan()
        floorplan.add(PlacedComponent(
            name="sw0", kind="switch", rect=Rect(2.0, 3.0, 1.0, 1.0), layer=2,
        ))
        specs = vertical_link_specs(topo, floorplan, core_spec)
        assert len(specs) == 2  # injection + ejection both span 2 layers
        assert all(s.top_center == (2.5, 3.5) for s in specs)
        assert all((s.lo_layer, s.hi_layer) == (0, 2) for s in specs)


class TestFloorplanStage:
    @pytest.mark.parametrize("floorplanner", ["custom", "constrained"])
    def test_switch_on_coreless_layer_keeps_its_layer(self, floorplanner):
        # Cores on layers 0 and 2 only; the switch on layer 1 sits right
        # above core C0 and must not be inserted into layer 0.
        core_spec = CoreSpec(cores=[
            Core("C0", 2, 2, 0, 0, 0), Core("C2", 2, 2, 0, 0, 2),
        ])
        topo = Topology(frequency_mhz=400.0, width_bits=32)
        sw = topo.add_switch(layer=1, is_indirect=True)
        sw.x, sw.y = 1.0, 1.0
        ctx = SimpleNamespace(
            core_spec=core_spec, library=default_library(),
            config=SynthesisConfig(floorplanner=floorplanner),
        )
        floorplan = FloorplanStage()._insert_noc(ctx, topo)
        assert floorplan.by_name("sw0").layer == 1
        assert floorplan.is_legal()


class TestCompatibilityWrappers:
    """One candidate and the run context, reached through
    :class:`FlowContext` and :class:`Pipeline` directly."""

    def test_evaluate_assignment_still_works(self, tiny_specs):
        from repro.core.phase1 import phase1_candidate

        core_spec, comm_spec = tiny_specs
        ctx = FlowContext.build(core_spec, comm_spec,
                                config=SynthesisConfig(max_ill=10))
        assignment = phase1_candidate(ctx.graph, ctx.config, 2)
        point = Pipeline().evaluate(ctx, assignment).point
        assert point is not None
        assert point.assignment == assignment

    def test_context_attributes_exposed(self, tiny_specs):
        core_spec, comm_spec = tiny_specs
        ctx = FlowContext.build(core_spec, comm_spec)
        assert ctx.core_spec is core_spec
        assert ctx.graph.n == len(core_spec.names)
        assert len(ctx.core_centers) == ctx.graph.n
        assert ctx.die_bounds[0] > 0
