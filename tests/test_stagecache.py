"""Per-stage memoization: fingerprint properties, invalidation scoping,
warm/cold bit-identity and failure-caching semantics
(:mod:`repro.engine.stagecache` + the :mod:`repro.core.pipeline` threading).
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.config import SynthesisConfig
from repro.core.frequency_sweep import sweep_frequencies
from repro.core.pipeline import (
    DEFAULT_STAGE_NAMES,
    CandidateRequest,
    FlowContext,
    PartitionStage,
    Pipeline,
    PlacementLPStage,
    RoutingStage,
    Stage,
    StageFailure,
    StageTimings,
)
from repro.core.synthesis import synthesize
from repro.engine.stagecache import (
    StageCache,
    format_stage_cache_summary,
    merge_stage_stats,
    open_stage_cache,
)
from repro.engine.store import _FRAME
from repro.errors import StoreError
from repro.noc.export import design_point_to_dict

CONFIG = SynthesisConfig(max_ill=10, switch_count_range=(2, 3))


@pytest.fixture
def ctx(tiny_specs):
    core_spec, comm_spec = tiny_specs
    return FlowContext.build(core_spec, comm_spec, config=CONFIG)


@pytest.fixture
def ok_request(ctx):
    """A candidate that survives the full default pipeline."""
    pipeline = Pipeline()
    for count in range(2, 6):
        request = CandidateRequest("phase1", (count,))
        if pipeline.evaluate(ctx, request).ok:
            return request
    raise AssertionError("no switch count in 2..5 yields a valid candidate")


def _cache(tmp_path, name="stages"):
    return open_stage_cache(tmp_path / name)


def _with_config(ctx, config):
    return dataclasses.replace(ctx, config=config)


class TestFingerprintProperties:
    """The stated invariants of stage fingerprints (satellite 3)."""

    def test_dict_field_order_invariance(self, ctx, ok_request, tmp_path):
        """Reordering the core_centers dict must not move any fingerprint:
        the canonical encoder hashes dicts in sorted-key order."""
        pipeline = Pipeline()
        cache = _cache(tmp_path)
        first = pipeline.evaluate(ctx, ok_request, stage_cache=cache)
        reordered = dataclasses.replace(
            ctx,
            core_centers=dict(reversed(list(ctx.core_centers.items()))),
        )
        second = pipeline.evaluate(
            reordered, ok_request, stage_cache=cache
        )
        assert first.stage_fingerprints == second.stage_fingerprints
        assert all(
            fp is not None for fp in first.stage_fingerprints.values()
        )
        # ... and identical fingerprints mean the rerun was served entirely
        # from the cache.
        assert second.cached_stages == list(DEFAULT_STAGE_NAMES)

    def test_objective_flip_moves_no_fingerprint(
        self, ctx, ok_request, tmp_path
    ):
        """No stage reads the metrics objective, so flipping it moves no
        fingerprint: the rerun is served whole from the cache, writes
        nothing, and its point carries the flipped config."""
        pipeline = Pipeline()
        cache = _cache(tmp_path)
        base = pipeline.evaluate(ctx, ok_request, stage_cache=cache)
        assert base.ok
        flipped_ctx = _with_config(ctx, ctx.config.with_(objective="latency"))
        adjacent = pipeline.evaluate(flipped_ctx, ok_request, stage_cache=cache)
        assert adjacent.stage_fingerprints == base.stage_fingerprints
        assert adjacent.cached_stages == list(DEFAULT_STAGE_NAMES)
        assert all(c.misses == 1 and c.hits == 1
                   for c in cache.counters.values())
        assert adjacent.point.config is flipped_ctx.config
        assert adjacent.point.metrics == base.point.metrics
        # Recorded seconds are credited, not re-measured.
        assert adjacent.stage_seconds == base.stage_seconds

    def test_floorplan_knob_reuses_every_upstream_stage(
        self, ctx, ok_request, tmp_path
    ):
        """A floorplan-only knob (the seed) leaves
        precheck/skeleton/routing/placement_lp untouched."""
        pipeline = Pipeline()
        cache = _cache(tmp_path)
        base = pipeline.evaluate(ctx, ok_request, stage_cache=cache)
        bumped = pipeline.evaluate(
            _with_config(ctx, ctx.config.with_(seed=1234)),
            ok_request,
            stage_cache=cache,
        )
        upstream = (
            "partition", "precheck", "skeleton", "routing", "placement_lp"
        )
        for name in upstream:
            assert (base.stage_fingerprints[name]
                    == bumped.stage_fingerprints[name])
        assert (base.stage_fingerprints["floorplan"]
                != bumped.stage_fingerprints["floorplan"])
        assert all(name in bumped.cached_stages for name in upstream)

    def test_salt_bump_invalidates_stage_and_downstream_only(
        self, ctx, ok_request, tmp_path, monkeypatch
    ):
        cache = _cache(tmp_path)
        base = Pipeline().evaluate(ctx, ok_request, stage_cache=cache)
        monkeypatch.setattr(RoutingStage, "salt", "v2-test")
        bumped = Pipeline().evaluate(ctx, ok_request, stage_cache=cache)
        for name in ("partition", "precheck", "skeleton"):
            assert (base.stage_fingerprints[name]
                    == bumped.stage_fingerprints[name])
        for name in ("routing", "placement_lp", "floorplan", "verify",
                     "metrics"):
            assert (base.stage_fingerprints[name]
                    != bumped.stage_fingerprints[name])

    def test_declaration_edit_invalidates_stage_and_downstream_only(
        self, ctx, ok_request, tmp_path, monkeypatch
    ):
        cache = _cache(tmp_path)
        base = Pipeline().evaluate(ctx, ok_request, stage_cache=cache)
        monkeypatch.setattr(
            PlacementLPStage, "context_inputs",
            ("core_centers", "die_bounds", "graph"),
        )
        widened = Pipeline().evaluate(ctx, ok_request, stage_cache=cache)
        for name in ("partition", "precheck", "skeleton", "routing"):
            assert (base.stage_fingerprints[name]
                    == widened.stage_fingerprints[name])
        for name in ("placement_lp", "floorplan", "verify", "metrics"):
            assert (base.stage_fingerprints[name]
                    != widened.stage_fingerprints[name])

    def test_d26_media_candidate_addresses_are_pinned(self, tmp_path):
        """Every address of one d26_media candidate, hard-coded: how a
        fingerprint is computed (memos, encoding once per context) must
        never move it, or every warm store silently goes cold. A change
        meant to move them bumps a salt and updates these values."""
        from repro.bench.registry import get_benchmark
        from repro.engine.store import CODE_SALT, fingerprint_task
        from repro.engine.tasks import SynthesisTask

        bench = get_benchmark("d26_media")
        ctx = FlowContext.build(bench.core_spec_3d, bench.comm_spec)
        state = Pipeline().evaluate(
            ctx, CandidateRequest("phase1", (4,)),
            stage_cache=open_stage_cache(tmp_path, salt=CODE_SALT),
        )
        assert state.ok
        assert state.stage_fingerprints == {
            "partition": "06ef07dcd35fe552601db7a235680e93"
                         "cf3f4debf0624f4418d76d1809afd8ce",
            "precheck": "24c6a051cc48619a8a10bcf201b08b63"
                        "447d78ed0d08f3892317b1ac9096f313",
            "skeleton": "26a0924f2ee3a8d51219d67fce60173d"
                        "0257cf08af1e9dd66061acb2e8f1a913",
            "routing": "78fa3c8f2ec062617812c107aae22459"
                       "c488280c142938d89c61690151732a50",
            "placement_lp": "ec0174d4ad08e14e0de92544651b6d2e"
                            "3dcd094652faefa2368c3703bff965fe",
            "floorplan": "d90088b0d0f7dc3ae8aa6c8c992da690"
                         "16c5971209db06de960eafa5387a3444",
            "verify": "1648d3968f33c3b07c6c716f69b14ff9"
                      "b5da656111f4d50b0feebb1d43fe1f0d",
            "metrics": "5eb0fcf2a88a78c16dd818a0adbec03b"
                       "c4d242960262ea6b02b4156c2844f5e5",
        }
        task = SynthesisTask(key="synth", core_spec=bench.core_spec_3d,
                             comm_spec=bench.comm_spec, config=ctx.config)
        assert fingerprint_task(task, salt=CODE_SALT) == (
            "a6beee97e1eca7507daf8212ede1a961"
            "e7c9e9a4d5920422092e39c733529e7e"
        )


class TestWorkerPrefixMemo:
    def test_second_candidate_task_builds_no_prefix(
        self, tiny_specs, tmp_path, monkeypatch
    ):
        """Candidate tasks run in one process share one pipeline, so the
        second task over a context reuses every fingerprint prefix the
        first built (a prefix build is the one sha256 the cache opens)."""
        import hashlib
        import types

        from repro.engine import stagecache, tasks

        builds = []

        def sha256(*args):
            builds.append(args)
            return hashlib.sha256(*args)

        monkeypatch.setattr(
            stagecache, "hashlib", types.SimpleNamespace(sha256=sha256)
        )
        core_spec, comm_spec = tiny_specs
        token = "worker-prefix-memo"

        def task(count):
            return tasks.CandidateTask(
                key=count, core_spec=core_spec, comm_spec=comm_spec,
                config=CONFIG, request=CandidateRequest("phase1", (count,)),
                context_token=token, stage_cache_dir=str(tmp_path),
            )

        try:
            first = tasks.run_task(task(2))
            assert len(builds) == len(DEFAULT_STAGE_NAMES)
            second = tasks.run_task(task(3))
        finally:
            tasks.release_context(token)
        assert first.error is None and second.error is None
        assert len(builds) == len(DEFAULT_STAGE_NAMES)


class TestRunCounters:
    """A synthesis run's stage-cache counters come from its candidates
    alone, wherever they ran, and the run writes through the caller's
    store."""

    def test_counters_equal_at_jobs_1_and_2(self, tmp_path):
        from repro.bench.registry import get_benchmark
        from repro.core.pipeline import run_synthesis

        bench = get_benchmark("d26_media")
        ctx = FlowContext.build(bench.core_spec_3d, bench.comm_spec)
        cold, warm = {}, {}
        for jobs in (1, 2):
            cache = _cache(tmp_path, f"cold{jobs}")
            run_synthesis(ctx, jobs=jobs, stage_cache=cache)
            cold[jobs] = cache.stats_dict()
        for jobs in (1, 2):
            cache = _cache(tmp_path, "cold1")
            run_synthesis(ctx, jobs=jobs, stage_cache=cache)
            warm[jobs] = cache.stats_dict()
        assert cold[1] == cold[2]
        assert warm[1] == warm[2]
        assert all(
            row["misses"] and row["bytes_written"] and not row["hits"]
            for row in cold[1].values()
        )
        assert all(
            row["hits"] and not row["misses"] for row in warm[1].values()
        )
        assert sum(row["bytes_read"] for row in warm[1].values()) > 0

    def test_cold_serial_run_writes_one_pack(self, ctx, tmp_path):
        from repro.core.pipeline import run_synthesis

        run_synthesis(ctx, stage_cache=_cache(tmp_path))
        packs = tmp_path / "stages" / "packs"
        assert sorted(p.name for p in packs.iterdir()) == ["000000.pack"]


class TestWarmIdentity:
    """Warm stage-cached runs must be bit-identical to cold ones."""

    def test_synthesize_warm_bit_identical(self, tiny_specs, tmp_path):
        core_spec, comm_spec = tiny_specs
        cold_cache = _cache(tmp_path)
        cold = synthesize(
            core_spec, comm_spec, config=CONFIG, stage_cache=cold_cache
        )
        plain = synthesize(core_spec, comm_spec, config=CONFIG)
        warm_cache = _cache(tmp_path)
        timings = StageTimings()
        warm = synthesize(
            core_spec, comm_spec, config=CONFIG, stage_cache=warm_cache,
            timings=timings,
        )

        def canonical(result):
            return [design_point_to_dict(p) for p in result.points]

        assert canonical(cold) == canonical(plain) == canonical(warm)
        # Stronger than dict equality: each replayed point is pickle-byte
        # identical to its cold twin.
        for a, b in zip(cold.points, warm.points):
            assert pickle.dumps(a) == pickle.dumps(b)

        cold_stats = cold_cache.stats_dict()
        assert sum(r["misses"] for r in cold_stats.values()) > 0
        assert sum(r["bytes_written"] for r in cold_stats.values()) > 0
        warm_stats = warm_cache.stats_dict()
        assert warm_stats
        assert all(r["misses"] == 0 for r in warm_stats.values())
        assert sum(r["hits"] for r in warm_stats.values()) > 0
        assert sum(r["bytes_read"] for r in warm_stats.values()) > 0
        # The warm run still reports per-stage timings (the originals,
        # replayed), flagged as cached.
        assert timings.any_cached
        assert "cached" in timings.report()

    def test_missing_record_recomputes_from_its_producer(
        self, ctx, ok_request, tmp_path
    ):
        """A record the replay needs but cannot load (here: its frame's
        last byte flipped) caps the replay below its stage: the walk
        resumes after the deepest record left before it and rewrites what
        it recomputes."""
        pipeline = Pipeline()
        cache = _cache(tmp_path)
        base = pipeline.evaluate(ctx, ok_request, stage_cache=cache)
        floorplan_fp = base.stage_fingerprints["floorplan"]
        assert cache.store.head(floorplan_fp) is not None
        pack, offset, length, _crc = cache.store._packs.entries[floorplan_fp]
        with open(cache.store._packs.path(pack), "r+b") as fh:
            fh.seek(offset + _FRAME.size + length - 1)
            last = fh.read(1)[0]
            fh.seek(-1, 1)
            fh.write(bytes([last ^ 0xFF]))
        assert cache.store.head(floorplan_fp) is None
        again = pipeline.evaluate(ctx, ok_request, stage_cache=cache)
        upstream = ["partition", "precheck", "skeleton", "routing",
                    "placement_lp"]
        assert again.cached_stages == upstream
        assert pickle.dumps(again.point) == pickle.dumps(base.point)
        assert cache.store.head(floorplan_fp) is not None

    def test_sweep_warm_adjacent_runs_nothing(self, tiny_specs, tmp_path):
        """A sweep with only the objective flipped re-runs no stage and
        writes no record, and its points equal a fresh run's."""
        core_spec, comm_spec = tiny_specs
        cache_dir = str(tmp_path / "stages")
        freqs = (400.0, 600.0)
        adjacent = CONFIG.with_(objective="latency")

        reference = sweep_frequencies(
            core_spec, comm_spec, freqs, config=adjacent
        )
        cold = sweep_frequencies(
            core_spec, comm_spec, freqs, config=CONFIG,
            stage_cache_dir=cache_dir,
        )
        warm = sweep_frequencies(
            core_spec, comm_spec, freqs, config=adjacent,
            stage_cache_dir=cache_dir,
        )

        assert cold.stage_cache and warm.stage_cache
        assert all(row["misses"] == 0 and row["bytes_written"] == 0
                   for row in warm.stage_cache.values())
        assert warm.stage_cache["partition"]["hits"] > 0
        assert warm.stage_cache["metrics"]["hits"] > 0

        def canonical(sweep):
            return {
                freq: [design_point_to_dict(p) for p in result.points]
                for freq, result in sweep.per_frequency.items()
            }

        assert canonical(warm) == canonical(reference)


class _StoreSpy:
    """Counts every store access of each candidate a serial run evaluates:
    ``get`` (a payload read), ``head`` (a header read) and ``put``."""

    def __init__(self, monkeypatch):
        from repro.engine.store import ResultStore

        self.calls = []
        self.candidates = []  # (state, that candidate's calls)
        for kind in ("get", "head", "put"):
            original = getattr(ResultStore, kind)

            def spy(store, fingerprint, *args, _kind=kind, _orig=original,
                    **kwargs):
                self.calls.append((_kind, fingerprint))
                return _orig(store, fingerprint, *args, **kwargs)

            monkeypatch.setattr(ResultStore, kind, spy)
        evaluate = Pipeline.evaluate

        def counted(pipeline, *args, **kwargs):
            start = len(self.calls)
            state = evaluate(pipeline, *args, **kwargs)
            self.candidates.append((state, self.calls[start:]))
            return state

        monkeypatch.setattr(Pipeline, "evaluate", counted)

    def reset(self):
        self.calls.clear()
        self.candidates.clear()


class TestReplayReadBudget:
    """What a stage-cached candidate reads, counted on d26_media: a cold
    candidate looks each stage up at most once, and a warm-adjacent one
    (objective flipped) loads only the records the point is built from."""

    def _ctx(self, objective):
        from repro.bench.registry import get_benchmark

        bench = get_benchmark("d26_media")
        return FlowContext.build(
            bench.core_spec_3d, bench.comm_spec,
            config=SynthesisConfig(objective=objective),
        )

    def test_cold_then_warm_adjacent(self, tmp_path, monkeypatch):
        from repro.core.pipeline import run_synthesis

        fresh = run_synthesis(self._ctx("latency"))
        spy = _StoreSpy(monkeypatch)
        run_synthesis(self._ctx("power"), stage_cache=_cache(tmp_path))
        assert spy.candidates
        for state, calls in spy.candidates:
            stage_of = {fp: name for name, fp in
                        state.stage_fingerprints.items()}
            lookups = [stage_of[fp] for kind, fp in calls if kind != "put"]
            assert len(lookups) == len(set(lookups)), lookups

        spy.reset()
        cache = _cache(tmp_path)
        latency_ctx = self._ctx("latency")
        warm = run_synthesis(latency_ctx, stage_cache=cache)
        assert all(row["misses"] == 0 and row["bytes_written"] == 0
                   for row in cache.stats_dict().values())
        assert not [call for call in spy.calls if call[0] == "put"]
        rejected = 0
        for state, calls in spy.candidates:
            stage_of = {fp: name for name, fp in
                        state.stage_fingerprints.items()}
            reads = sorted(stage_of[fp] for kind, fp in calls if kind == "get")
            if state.point is not None:
                assert reads == ["floorplan", "metrics", "partition"]
            else:
                rejected += 1
                assert reads == [state.failed_stage]
        assert rejected and len(warm.points) == len(spy.candidates) - rejected

        assert [pickle.dumps(p) for p in warm.points] == [
            pickle.dumps(p) for p in fresh.points
        ]
        assert all(p.config is latency_ctx.config for p in warm.points)


class TestBatchedCampaignWarmIdentity:
    """``batch=K`` must be invisible to every cache layer: the synthesis
    stages and the per-replication simulation entries a solo campaign
    writes serve a batched rerun in full — and vice versa."""

    KWARGS = dict(
        benchmark="d26_media",
        injection_scales=(0.1, 0.5),
        cycles=1_200,
        warmup=120,
        config=SynthesisConfig(max_ill=25, switch_count_range=(3, 5)),
        scenarios=("bernoulli",),
        seeds=(0, 1, 2),
    )

    def _run(self, store=None, batch=None):
        from repro.experiments.simulation_validation import (
            run_simulation_validation,
        )

        return run_simulation_validation(
            jobs=1, store=store, batch=batch, **self.KWARGS
        )

    def test_batched_warm_over_cold_solo_campaign(self, tmp_path):
        from repro.engine import ResultStore

        cold = self._run(store=ResultStore(tmp_path))
        warm_store = ResultStore(tmp_path)
        warm = self._run(store=warm_store, batch=2)
        assert pickle.dumps(warm.rows) == pickle.dumps(cold.rows)
        # 2 scales x 3 seeds simulation entries plus the synthesis —
        # every one a hit, none recomputed, no batch-shaped entries.
        assert (warm_store.hits, warm_store.misses) == (7, 0)
        assert warm_store.stats().by_task_type == {
            "SimulationTask": 6, "SynthesisTask": 1,
        }

    def test_solo_warm_over_cold_batched_campaign(self, tmp_path):
        from repro.engine import ResultStore

        cold = self._run(store=ResultStore(tmp_path), batch=3)
        warm_store = ResultStore(tmp_path)
        warm = self._run(store=warm_store)
        assert pickle.dumps(warm.rows) == pickle.dumps(cold.rows)
        assert (warm_store.hits, warm_store.misses) == (7, 0)


CALLS = {"reject": 0, "explode": 0, "unstable": 0}


class RejectingStage(Stage):
    name = "reject"

    def run(self, ctx, state):
        CALLS["reject"] += 1
        raise StageFailure("deterministic rejection")


class ExplodingStage(Stage):
    name = "explode"

    def run(self, ctx, state):
        CALLS["explode"] += 1
        raise RuntimeError("hard error, not a rejection")


class UnstableStage(Stage):
    """Holds a handle with no stable representation."""

    name = "unstable"

    def __init__(self):
        self.handle = object()

    def run(self, ctx, state):
        CALLS["unstable"] += 1


class OrphanReadStage(Stage):
    """Declares a state input that no stage before it writes."""

    name = "orphan"
    state_inputs = ("topology",)

    def run(self, ctx, state):
        pass


class TestFailureSemantics:
    def test_stage_failure_is_cached_and_replayed(
        self, ctx, ok_request, tmp_path
    ):
        CALLS["reject"] = 0
        pipeline = Pipeline([RejectingStage()])
        cache = _cache(tmp_path)
        first = pipeline.evaluate(ctx, ok_request, stage_cache=cache)
        assert first.failed_stage == "reject"
        assert CALLS["reject"] == 1
        second = pipeline.evaluate(ctx, ok_request, stage_cache=cache)
        assert CALLS["reject"] == 1  # replayed, not re-run
        assert second.failed_stage == "reject"
        assert second.failure_reason == "deterministic rejection"
        assert second.cached_stages == ["reject"]

    def test_hard_error_is_never_cached(self, ctx, ok_request, tmp_path):
        CALLS["explode"] = 0
        pipeline = Pipeline([ExplodingStage()])
        cache = _cache(tmp_path)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                pipeline.evaluate(ctx, ok_request, stage_cache=cache)
        assert CALLS["explode"] == 2  # re-ran: no record was written
        assert cache.counters["explode"].misses == 2
        assert cache.counters["explode"].bytes_written == 0
        assert cache.store.stats().entries == 0

    def test_unencodable_stage_raises_before_any_stage_runs(
        self, ctx, ok_request, tmp_path
    ):
        """Every stage is fingerprinted before any runs: a stage holding a
        handle with no stable encoding is a StoreError under a stage
        cache, and neither it nor the stage before it runs or writes.
        Without a cache the same pipeline runs."""
        CALLS["unstable"] = 0
        pipeline = Pipeline([PartitionStage(), UnstableStage()])
        cache = _cache(tmp_path)
        with pytest.raises(StoreError, match="no stable representation"):
            pipeline.evaluate(ctx, ok_request, stage_cache=cache)
        assert CALLS["unstable"] == 0
        assert cache.counters == {}
        assert cache.store.stats().entries == 0
        state = pipeline.evaluate(ctx, ok_request)
        assert state.ok and state.assignment is not None
        assert CALLS["unstable"] == 1

    def test_state_input_with_no_producer_raises(
        self, ctx, ok_request, tmp_path
    ):
        """``request`` is the one state input hashed by value; any other
        must be written by an earlier stage."""
        cache = _cache(tmp_path)
        with pytest.raises(StoreError, match="no earlier stage writes"):
            Pipeline([OrphanReadStage()]).evaluate(
                ctx, ok_request, stage_cache=cache
            )
        assert cache.store.stats().entries == 0


class TestStatsPlumbing:
    def test_merge_stage_stats_accumulates(self):
        into = {}
        merge_stage_stats(into, {"routing": {"hits": 1, "misses": 2}})
        merge_stage_stats(
            into,
            {"routing": {"hits": 3, "bytes_read": 10},
             "metrics": {"misses": 1}},
        )
        assert into["routing"]["hits"] == 4
        assert into["routing"]["misses"] == 2
        assert into["routing"]["bytes_read"] == 10
        assert into["metrics"]["misses"] == 1
        assert merge_stage_stats({}, None) == {}

    def test_format_summary_shape(self):
        stats = {
            "skeleton": {"hits": 2, "misses": 1, "bytes_read": 2048,
                         "bytes_written": 1024},
            "metrics": {"hits": 0, "misses": 3, "bytes_read": 0,
                        "bytes_written": 4096},
        }
        text = format_stage_cache_summary(stats)
        lines = text.splitlines()
        assert lines[0].split() == ["stage", "hits", "misses", "read",
                                    "written"]
        assert any(line.lstrip().startswith("skeleton") for line in lines)
        assert lines[-1].split()[0] == "total"
        assert "2.0KiB" in text  # human-readable byte columns

    def test_spec_reopens_equivalent_cache(self, tmp_path):
        cache = _cache(tmp_path)
        directory, salt = cache.spec()
        reopened = open_stage_cache(directory, salt=salt)
        assert reopened.spec() == (directory, salt)
        assert isinstance(reopened, StageCache)
