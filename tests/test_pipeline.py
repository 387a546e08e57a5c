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
    CandidateRequest,
    FloorplanStage,
    FlowContext,
    IllPrecheckStage,
    Pipeline,
    RoutingStage,
    StageFailure,
    StageTimings,
    _phase1,
    _phase2,
    run_synthesis,
    vertical_link_specs,
)
from repro.core.synthesis import synthesize
from repro.engine.stagecache import StageCache
from repro.engine.store import ResultStore
from repro.engine.supervise import Supervision
from repro.errors import SynthesisError
from repro.floorplan.geometry import Rect
from repro.floorplan.placement import ChipFloorplan, PlacedComponent
from repro.models.library import default_library
from repro.noc.export import design_point_to_dict
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

    def test_partition_row_is_stage_cached(self, tiny_specs, tmp_path):
        """Partitioning is a stage like the others: a rerun over the same
        stage cache serves every partition from it."""
        core_spec, comm_spec = tiny_specs
        config = SynthesisConfig(max_ill=10)
        cold = StageCache(ResultStore(tmp_path))
        synthesize(core_spec, comm_spec, config=config, stage_cache=cold)
        assert cold.counters["partition"].misses > 0
        warm = StageCache(ResultStore(tmp_path))
        timings = StageTimings()
        synthesize(core_spec, comm_spec, config=config, stage_cache=warm,
                   timings=timings)
        calls = timings.count("partition")
        assert calls == timings.cached_count("partition") > 0
        assert warm.stats_dict()["partition"]["hits"] == calls
        assert warm.stats_dict()["partition"]["misses"] == 0
        assert "(%d cached)" % calls in timings.report()

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
            pipeline_module, "phase2_switch_counts",
            lambda graph, config, library: [(3,), (3,), (4,)],
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


class TestPhase2Planning:
    def test_only_in_range_candidates_are_partitioned(
        self, small_specs, monkeypatch
    ):
        """The planner sizes every candidate from the layer counts, so a
        switch-count range costs one cut per layer of each kept candidate,
        and those candidates are exactly the unbounded run's."""
        from repro.core import phase2

        core_spec, comm_spec = small_specs
        config = SynthesisConfig(max_ill=12, phase="phase2")
        unbounded = synthesize(core_spec, comm_spec, config=config)
        calls = []
        real = phase2.kway_min_cut

        def counting(n, weights, k):
            calls.append(k)
            return real(n, weights, k)

        monkeypatch.setattr(phase2, "kway_min_cut", counting)
        keys = []
        ranged = synthesize(
            core_spec, comm_spec,
            config=config.with_(switch_count_range=(4, 8)),
            progress=lambda done, total, key: keys.append(key),
        )
        assert keys == [("phase2", 6, None)]
        assert calls == [2, 2, 2]  # one cut per layer, two switches each
        assert [design_point_to_dict(p) for p in ranged.points] == [
            design_point_to_dict(p)
            for p in unbounded.points if 4 <= p.switch_count <= 8
        ]


class TestSerialRetries:
    """``supervision.retries`` re-runs a serially evaluated candidate whose
    evaluation raised, as the engine retries a worker task."""

    CONFIG = SynthesisConfig(max_ill=10, switch_count_range=(2, 3))

    @staticmethod
    def _raise_once(monkeypatch, stage_cls):
        real = stage_cls.run
        left = [1]

        def flaky(self, ctx, state):
            if left[0]:
                left[0] -= 1
                raise RuntimeError("transient")
            real(self, ctx, state)

        monkeypatch.setattr(stage_cls, "run", flaky)

    def test_retry_recovers_the_clean_points(self, tiny_specs, monkeypatch):
        ctx = FlowContext.build(*tiny_specs, config=self.CONFIG)
        clean = run_synthesis(ctx)
        self._raise_once(monkeypatch, RoutingStage)
        retried = run_synthesis(ctx, supervision=Supervision(retries=1))
        assert [design_point_to_dict(p) for p in retried.points] == [
            design_point_to_dict(p) for p in clean.points
        ]
        assert retried.unmet_switch_counts == clean.unmet_switch_counts

    def test_no_retries_raises(self, tiny_specs, monkeypatch):
        ctx = FlowContext.build(*tiny_specs, config=self.CONFIG)
        self._raise_once(monkeypatch, RoutingStage)
        with pytest.raises(RuntimeError, match="transient"):
            run_synthesis(ctx, supervision=Supervision(retries=0))

    def test_rejection_is_not_retried(self, tiny_specs, monkeypatch):
        ctx = FlowContext.build(
            *tiny_specs, config=self.CONFIG.with_(phase="phase1")
        )
        runs = []

        def reject(self, ctx, state):
            runs.append(state.request)
            raise StageFailure("rejected")

        monkeypatch.setattr(IllPrecheckStage, "run", reject)
        keys = []
        result = run_synthesis(
            ctx, supervision=Supervision(retries=2),
            progress=lambda done, total, key: keys.append(key),
        )
        assert result.is_empty
        assert len(runs) == len(keys) == 2 * (1 + len(THETA_VALUES))


class TestOneCandidateLoop:
    """Every round of a run is one ``run_tasks`` call, at ``jobs=1`` too,
    and the run's context slot is gone once it returns or raises."""

    CONFIG = SynthesisConfig(max_ill=10, switch_count_range=(2, 3))

    @staticmethod
    def _record(monkeypatch):
        from repro.engine import executor

        calls, rounds = [], []
        run_tasks = executor.run_tasks
        evaluate_round = pipeline_module._evaluate_round

        def recording_run_tasks(tasks, **kwargs):
            tasks = list(tasks)
            calls.append([task.request for task in tasks])
            return run_tasks(tasks, **kwargs)

        def recording_round(evaluate, requests, result):
            rounds.append(list(requests))
            return evaluate_round(evaluate, requests, result)

        monkeypatch.setattr(executor, "run_tasks", recording_run_tasks)
        monkeypatch.setattr(
            pipeline_module, "_evaluate_round", recording_round
        )
        return calls, rounds

    def test_each_round_is_one_run_tasks_call(self, tiny_specs, monkeypatch):
        from repro.engine import tasks

        def reject(self, ctx, state):
            raise StageFailure("rejected")

        # Every candidate rejected: each θ round of Phase 1 runs, then the
        # Phase 2 round.
        monkeypatch.setattr(IllPrecheckStage, "run", reject)
        calls, rounds = self._record(monkeypatch)
        ctx = FlowContext.build(*tiny_specs, config=self.CONFIG)
        run_synthesis(ctx, jobs=1)
        assert len(rounds) == 1 + len(THETA_VALUES) + 1
        assert calls == rounds
        assert tasks._CTX_CACHE == {}

    def test_slot_released_when_a_candidate_raises(
        self, tiny_specs, monkeypatch
    ):
        from repro.engine import tasks

        def explode(self, ctx, state):
            raise RuntimeError("boom")

        monkeypatch.setattr(RoutingStage, "run", explode)
        calls, _rounds = self._record(monkeypatch)
        ctx = FlowContext.build(*tiny_specs, config=self.CONFIG)
        with pytest.raises(RuntimeError, match="boom"):
            run_synthesis(ctx, jobs=1)
        assert len(calls) == 1
        assert tasks._CTX_CACHE == {}

    def test_slot_released_when_progress_raises(self, tiny_specs):
        from repro.engine import tasks

        def stop(done, total, key):
            raise KeyboardInterrupt

        ctx = FlowContext.build(*tiny_specs, config=self.CONFIG)
        with pytest.raises(KeyboardInterrupt):
            run_synthesis(ctx, jobs=1, progress=stop)
        assert tasks._CTX_CACHE == {}


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
        point = Pipeline().evaluate(
            ctx, CandidateRequest("phase1", (2,))
        ).point
        assert point is not None
        assert point.assignment == phase1_candidate(
            ctx.graph, ctx.config.alpha, ctx.config.switch_layer_mode, 2
        )

    def test_context_attributes_exposed(self, tiny_specs):
        core_spec, comm_spec = tiny_specs
        ctx = FlowContext.build(core_spec, comm_spec)
        assert ctx.core_spec is core_spec
        assert ctx.graph.n == len(core_spec.names)
        assert len(ctx.core_centers) == ctx.graph.n
        assert ctx.die_bounds[0] > 0
