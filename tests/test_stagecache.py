"""Per-stage memoization: fingerprint properties, invalidation scoping,
warm/cold bit-identity and failure-caching semantics
(:mod:`repro.engine.stagecache` + the :mod:`repro.core.pipeline` threading).
"""

from __future__ import annotations

import dataclasses
import os
import pickle

import pytest

from repro.core.config import SynthesisConfig
from repro.core.frequency_sweep import sweep_frequencies
from repro.core.pipeline import (
    DEFAULT_STAGE_NAMES,
    CandidateRequest,
    FloorplanStage,
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
            "partition": "2a2fffe7a14c5dbf3b9be19575dd1ec9"
                         "77a332d05b60851442b58cf825c11c10",
            "precheck": "b547ea3bd6c296ca5707aed99bba3ba0"
                        "1e196bfd1b642613a14af5b670bef0d6",
            "skeleton": "f8b0ca1f716783aac9e2cbfc3819df73"
                        "504f6c6b9c5a9de9496e2b64387327e9",
            "routing": "8bcbc8eb7175d2a34a94ac1e7446d1f4"
                       "735aa34aa9e89eb7d24acc0efaadf485",
            "placement_lp": "80551c5672c09740787a9826858b8437"
                            "deb5af42e744481292d5f64a6570ccd8",
            "floorplan": "d1369d0e72d345ab2782d5a3123ab932"
                         "b86f6d3521a717e7bb5b2286040ae1fe",
            "verify": "8abb5a8be6624ecd1756f2d08798b327"
                      "93fa5a2e71c193b65f6e0ba2adc4f334",
            "metrics": "fdc6a0e00c30ff89a20be906ce5ac5f4"
                       "bb895d30ced0eb5ea449eef26e5d810b",
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


class TestStatsOrder:
    """A warm run lists its stage-cache counters and timings in pipeline
    order, though its replay loads metrics, partition and floorplan
    first."""

    def test_warm_run_counters_follow_the_pipeline(self, tmp_path):
        from repro.bench.registry import get_benchmark
        from repro.core.pipeline import run_synthesis

        bench = get_benchmark("d26_media")
        for objective in ("power", "latency"):
            cache = _cache(tmp_path)
            run_synthesis(FlowContext.build(
                bench.core_spec_3d, bench.comm_spec,
                config=SynthesisConfig(objective=objective),
            ), stage_cache=cache)
        stats = cache.stats_dict()
        assert all(row["hits"] and not row["misses"]
                   for row in stats.values())
        assert tuple(stats) == DEFAULT_STAGE_NAMES

    def test_cli_stage_timings_follow_the_pipeline(self, tmp_path, capsys):
        from repro.cli import main

        args = ["synth", "--benchmark", "d26_media", "--switches", "3:6",
                "--cache-dir", str(tmp_path), "--stage-timings"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--objective", "latency"]) == 0
        out = capsys.readouterr().out
        for title in ("per-stage timings:", "stage cache:"):
            table = out.split(title)[1].split("\n\n")[0].strip()
            rows = [line.split()[0] for line in table.splitlines()[2:]]
            assert rows[:len(DEFAULT_STAGE_NAMES)] == list(
                DEFAULT_STAGE_NAMES
            ), (title, rows)


class TestSweepOnCallerStore:
    """While ``run_tasks(..., store=S)`` runs, a stage-cached synthesis
    task evaluates on ``S`` itself: a serial sweep writes one pack, the
    store's hit/miss counters still count whole-task lookups only, and
    each point's stage-cache counters equal those of a task that opens a
    store of its own."""

    def _sweep(self, cache_dir, *extra):
        from repro.cli import main

        return main([
            "sweep", "--benchmark", "d26_media", "--switches", "3:5",
            "--frequencies", "400,500,600", "--cache-dir", str(cache_dir),
            *extra,
        ])

    def test_serial_sweep_leaves_one_pack(self, tmp_path, capsys):
        assert self._sweep(tmp_path, "--jobs", "1", "--quiet") == 0
        packs = sorted(p.name for p in (tmp_path / "packs").iterdir())
        assert packs == ["000000.pack"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_store_line_counts_whole_tasks_only(self, tmp_path, capsys, jobs):
        lines = []
        # cold, warm-adjacent (every stage replayed), then warm
        for objective in ("power", "latency", "latency"):
            assert self._sweep(
                tmp_path, "--jobs", jobs, "--objective", objective
            ) == 0
            lines += [line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("store:")]
        assert lines == [
            "store: 0 hit(s), 3 miss(es)",
            "store: 0 hit(s), 3 miss(es)",
            "store: 3 hit(s), 0 miss(es)",
        ]

    def test_point_counters_equal_a_store_of_its_own(
        self, tiny_specs, tmp_path
    ):
        from repro.engine import ParameterGrid, ResultStore, build_tasks
        from repro.engine.executor import run_tasks

        core_spec, comm_spec = tiny_specs
        grid = ParameterGrid(frequencies_mhz=(400.0, 500.0, 600.0))
        counters, packs = {}, {}
        for name in ("caller", "own"):
            root = tmp_path / name
            store = ResultStore(root)
            counters[name] = [
                [result.stage_cache for result in run_tasks(
                    build_tasks(
                        core_spec, comm_spec, grid,
                        CONFIG.with_(objective=objective),
                        stage_cache_dir=str(root),
                    ),
                    store=store if name == "caller" else None,
                )]
                for objective in ("power", "latency")
            ]
            packs[name] = len(list((root / "packs").iterdir()))
        assert counters["caller"] == counters["own"]
        assert all(counters["own"][0]) and all(counters["own"][1])
        # The caller's store takes every record; each task on its own
        # opens a store, and a pack at its first write.
        assert packs == {"caller": 1, "own": 3}

    def test_serving_store_outlives_nested_calls(self, tmp_path):
        from repro.engine import tasks
        from repro.engine.store import ResultStore

        store = ResultStore(tmp_path)
        task = tasks.SynthesisTask(
            key="point", core_spec=None, comm_spec=None, config=CONFIG,
            stage_cache_dir=str(tmp_path),
        )
        other_salt = dataclasses.replace(task, stage_cache_salt="other")
        # The same directory, spelled otherwise.
        aliases = [
            dataclasses.replace(task, stage_cache_dir=str(tmp_path) + "/"),
            dataclasses.replace(
                task, stage_cache_dir=os.path.relpath(tmp_path)
            ),
        ]
        assert tasks._task_stage_cache(task).store is not store
        with tasks.serving_store(store):
            with tasks.serving_store(None):
                assert tasks._task_stage_cache(task).store is store
            assert tasks._task_stage_cache(task).store is store
            for alias in aliases:
                assert tasks._task_stage_cache(alias).store is store
            assert tasks._task_stage_cache(other_salt).store is not store
        # A worker started without fork has no serving store: it reopens.
        assert tasks._task_stage_cache(task).store is not store


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
        assert cache.load(FloorplanStage(), floorplan_fp) is not None
        pack, offset, length, _crc = cache.store._packs.entries[floorplan_fp]
        with open(cache.store._packs.path(pack), "r+b") as fh:
            fh.seek(offset + _FRAME.size + length - 1)
            last = fh.read(1)[0]
            fh.seek(-1, 1)
            fh.write(bytes([last ^ 0xFF]))
        # Read through a second handle, so the replay below meets the
        # flipped frame itself.
        assert _cache(tmp_path).load(FloorplanStage(), floorplan_fp) is None
        again = pipeline.evaluate(ctx, ok_request, stage_cache=cache)
        upstream = ["partition", "precheck", "skeleton", "routing",
                    "placement_lp"]
        assert again.cached_stages == upstream
        assert pickle.dumps(again.point) == pickle.dumps(base.point)
        assert cache.load(FloorplanStage(), floorplan_fp) is not None

    @pytest.mark.parametrize("depth", range(len(DEFAULT_STAGE_NAMES)))
    def test_resumed_walk_pickles_like_a_cold_one(
        self, ctx, ok_request, tmp_path, monkeypatch, depth
    ):
        """A walk that resumes after any stage, its later records lost (a
        worker killed mid-candidate), gives a point pickle-byte identical
        to a cold one, although the stages it runs extend replayed
        objects with values of their own."""
        pipeline = Pipeline()
        cold = pipeline.evaluate(ctx, ok_request)
        kept = list(DEFAULT_STAGE_NAMES[: depth + 1])
        save = StageCache.save
        monkeypatch.setattr(
            StageCache, "save",
            lambda self, stage, *args: stage.name in kept
            and save(self, stage, *args),
        )
        pipeline.evaluate(ctx, ok_request, stage_cache=_cache(tmp_path))
        monkeypatch.undo()
        warm = pipeline.evaluate(ctx, ok_request, stage_cache=_cache(tmp_path))
        assert warm.cached_stages == kept
        assert pickle.dumps(warm.point) == pickle.dumps(cold.point)

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
    """Counts the store work of each candidate a serial run evaluates:
    ``read`` (a frame read from a pack, by fingerprint), ``refresh`` (a
    pack-index refresh; the one a writer makes to claim its pack is
    ``claim``) and ``put``."""

    def __init__(self, monkeypatch):
        from repro.engine.store import ResultStore, _PackIndex

        self.calls = []
        self.candidates = []  # (state, that candidate's calls)
        self.putting = False

        def read(index, fingerprint, _orig=_PackIndex.read):
            self.calls.append(("read", fingerprint))
            return _orig(index, fingerprint)

        def refresh(index, _orig=_PackIndex.refresh):
            self.calls.append(("claim" if self.putting else "refresh", None))
            return _orig(index)

        def put(store, fingerprint, *args, _orig=ResultStore.put, **kwargs):
            self.calls.append(("put", fingerprint))
            self.putting = True
            try:
                return _orig(store, fingerprint, *args, **kwargs)
            finally:
                self.putting = False

        monkeypatch.setattr(_PackIndex, "read", read)
        monkeypatch.setattr(_PackIndex, "refresh", refresh)
        monkeypatch.setattr(ResultStore, "put", put)
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
    candidate reads no frame, and a warm-adjacent one (objective flipped)
    reads only the records the point is built from. Each refreshes the
    pack index at most once: the probe for the deepest record asks the
    index, not the packs."""

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
        for _state, calls in spy.candidates:
            kinds = [kind for kind, _fp in calls]
            assert "read" not in kinds, kinds
            assert kinds.count("refresh") <= 1, kinds

        spy.reset()
        cache = _cache(tmp_path)
        latency_ctx = self._ctx("latency")
        warm = run_synthesis(latency_ctx, stage_cache=cache)
        assert all(row["misses"] == 0 and row["bytes_written"] == 0
                   for row in cache.stats_dict().values())
        assert not [call for call in spy.calls if call[0] == "put"]
        rejected = 0
        for n, (state, calls) in enumerate(spy.candidates):
            stage_of = {fp: name for name, fp in
                        state.stage_fingerprints.items()}
            reads = sorted(stage_of[fp] for kind, fp in calls
                           if kind == "read")
            refreshes = [kind for kind, _fp in calls if kind == "refresh"]
            # A fresh handle indexes the packs on its first probe; a point
            # finds its last record indexed from then on.
            assert len(refreshes) <= (1 if n == 0 or not state.ok else 0)
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
