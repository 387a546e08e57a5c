"""The three benchmark workloads: set-up, one timed pass, and its checks.

Each workload builds its inputs from the workload seed, runs one *pass* of
fixed work per :meth:`run_pass` call and returns a :class:`Pass` carrying
the pass's timings, a canonical digest of its outputs and any failed
correctness check. ``tiny=True`` shrinks every workload to seconds for the
benchmark's own tests. See README.md for why each workload was chosen.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.bench import registry
from repro.campaign.service import CampaignService
from repro.campaign.spec import CampaignSpec, compile_campaign
from repro.core.config import SynthesisConfig
from repro.core.frequency_sweep import sweep_frequencies
from repro.core.pipeline import FlowContext, StageTimings, run_synthesis
from repro.core.verification import verify_design_point
from repro.engine.executor import run_tasks
from repro.engine.store import ResultStore
from repro.engine.tasks import SynthesisTask
from repro.models.library import default_library
from repro.noc.export import design_point_to_dict
from repro.noc.metrics import flow_latency_cycles


@dataclass
class Pass:
    """What one timed pass measured and checked."""

    wall_s: float
    digest: str
    #: Operations attempted (syntheses, sweep points, replications, jobs).
    attempted: int
    #: Failed or quarantined tasks and failed jobs.
    failed_ops: int = 0
    #: One message per failed correctness check.
    problems: List[str] = field(default_factory=list)
    #: Checks run (each counts as an attempted operation).
    checks: int = 0
    noc_power_mw: float = 0.0
    #: Sim-only outcomes (0 elsewhere).
    latency_gap_cyc: float = 0.0
    sim_kcycles_per_s: float = 0.0
    #: Layer counters read from the program's public outputs.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Scaled seconds (see :class:`Meter`) per unit of work, in pass
    #: order. Every pass of a run does the same units.
    units: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.problems.append(message)


def digest_of(doc) -> str:
    """SHA-256 of ``doc``'s canonical JSON (sorted keys, exact floats)."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _points_doc(points) -> list:
    return [design_point_to_dict(p) for p in points]


def _stats_doc(stats) -> dict:
    """One ``SimulationStats`` as plain JSON (per-flow keys as lists)."""
    doc = {}
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, dict):
            value = sorted([list(k), v] for k, v in value.items())
        doc[f.name] = value
    return doc


def _calibration_loop() -> None:
    table: Dict[int, int] = {}
    for i in range(20000):
        table[i % 997] = table.get(i % 991, 0) + i
    sorted(table.values())


class Meter:
    """Scales measured seconds to a reference machine speed.

    On a shared host the whole machine slows down and speeds up by tens of
    percent over minutes. A fixed pure-Python loop slows down with it, so
    each unit of work is timed between two runs of that loop and its
    seconds are scaled by ``NOMINAL_S`` over their mean. On a quiet machine
    the scaled and measured seconds agree.
    """

    #: The loop's time on a quiet 2-vCPU Xeon (2.1 GHz) VM, Python 3.11.
    NOMINAL_S = 0.0025

    def __init__(self) -> None:
        self.last = self.loop_s()

    @staticmethod
    def loop_s() -> float:
        best = float("inf")
        for _ in range(5):
            began = time.perf_counter()
            _calibration_loop()
            best = min(best, time.perf_counter() - began)
        return best

    def scale(self) -> float:
        """The factor for the work since the previous call."""
        now = self.loop_s()
        factor = self.NOMINAL_S / ((self.last + now) / 2)
        self.last = now
        return factor


def typical(passes: Sequence[Pass], prefix: str = "") -> float:
    """Each unit's median scaled time over the passes, summed over the
    units whose name starts with ``prefix``."""
    names = [u for u in passes[0].units if u.startswith(prefix)]
    return sum(statistics.median(p.units[u] for p in passes) for u in names)


def _clear_registry_cache() -> None:
    """Forget built benchmarks so each set-up repetition rebuilds them;
    the registry's cache is the only way to get a cold ``get_benchmark``."""
    registry._CACHE.clear()


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.workdir = Path(workdir)
        self.meter = Meter()

    def setup(self) -> float:
        """One set-up repetition; returns the ``get_benchmark`` seconds."""
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def summarize(self, passes: Sequence[Pass]) -> Dict[str, float]:
        """``wall_s``, ``cold_s`` and ``warm_s`` of a run."""
        return {
            "wall_s": typical(passes),
            "cold_s": typical(passes, "cold"),
            "warm_s": typical(passes, "warm"),
        }

    def _timed_build(self, specs: Sequence[Tuple[str, int]]):
        """``get_benchmark`` for each ``(name, seed)``, cold; also returns
        the seconds it took."""
        _clear_registry_cache()
        start = time.perf_counter()
        benches = [registry.get_benchmark(n, seed=seed) for n, seed in specs]
        return benches, time.perf_counter() - start


# --------------------------------------------------------------------------
# synth_registry: the `cli synth` path over four registry specs
# --------------------------------------------------------------------------

class _CandidateUnits:
    """Times the candidates of one synthesis from its progress callback,
    re-measuring the machine speed about every half second (one spec's
    synthesis takes seconds, longer than the speed holds still)."""

    INTERVAL_S = 0.5

    def __init__(self, meter: Meter) -> None:
        self.meter = meter
        self.scaled: List[float] = []
        self._pending: List[float] = []
        self._began = self._scaled_at = time.perf_counter()

    def mark(self, *_progress) -> None:
        now = time.perf_counter()
        self._pending.append(now - self._began)
        if now - self._scaled_at > self.INTERVAL_S:
            self.flush()
        self._began = time.perf_counter()  # the loop is not candidate time

    def flush(self) -> None:
        factor = self.meter.scale()
        self.scaled.extend(s * factor for s in self._pending)
        self._pending = []
        self._scaled_at = time.perf_counter()


class SynthRegistry(Workload):
    """One cold serial ``run_synthesis`` per spec, default config."""

    name = "synth_registry"

    def setup(self) -> float:
        names = ("d26_media",) if self.tiny else (
            "d26_media", "d36_8", "d38_tvopd", "d65_pipe"
        )
        benches, build_s = self._timed_build([(n, self.seed) for n in names])
        config = SynthesisConfig()
        self.contexts = [
            (b.name, FlowContext.build(b.core_spec_3d, b.comm_spec, None, config))
            for b in benches
        ]
        run_synthesis(self.contexts[0][1])  # warm-up: lazy imports, caches
        return build_s

    def run_pass(self) -> Pass:
        results, units = [], {}
        start = time.perf_counter()
        self.meter.scale()
        for name, ctx in self.contexts:
            # One unit per candidate: the progress callback fires after
            # each one; the last unit is the tail after the last candidate.
            candidates = _CandidateUnits(self.meter)
            results.append(run_synthesis(
                ctx, jobs=1, timings=StageTimings(), progress=candidates.mark,
            ))
            candidates.mark()
            candidates.flush()
            for i, seconds in enumerate(candidates.scaled):
                units[f"{name}/{i:04d}"] = seconds
        out = Pass(
            wall_s=time.perf_counter() - start,
            digest=digest_of([
                [name, _points_doc(r.points)]
                for (name, _ctx), r in zip(self.contexts, results)
            ]),
            attempted=len(results), units=units,
        )
        for (name, ctx), result in zip(self.contexts, results):
            out.check(bool(result.points), f"{name}: no design point")
            if not result.points:
                continue
            best = result.best_power()
            out.noc_power_mw += best.total_power_mw
            report = verify_design_point(best, ctx.graph, ctx.library)
            out.check(report.ok, f"{name}: best-power point fails "
                                 f"verification: {report.summary()}")
        return out

    def summarize(self, passes: Sequence[Pass]) -> Dict[str, float]:
        """Every synthesis on this path is cold (no store, no stage
        cache), so ``cold_s`` and ``warm_s`` both equal ``wall_s``."""
        wall = typical(passes)
        return {"wall_s": wall, "cold_s": wall, "warm_s": wall}


# --------------------------------------------------------------------------
# sweep_cached: the `cli sweep --cache` path
# --------------------------------------------------------------------------

class SweepCached(Workload):
    """Cold, warm-adjacent (objective flipped) and replay sweeps over one
    fresh store + stage cache, two workers.

    The sweeps cover four builds of d26_media (registry seeds ``4 * seed``
    to ``4 * seed + 3``) at two frequencies each: one build's synthesis
    cost moves by about 15 % with its seed, four average that out.
    """

    name = "sweep_cached"
    jobs = 2
    freqs = (400.0, 600.0)

    def setup(self) -> float:
        builds = 1 if self.tiny else 4
        self.benches, build_s = self._timed_build(
            [("d26_media", 4 * self.seed + i) for i in range(builds)]
        )
        bench = self.benches[0]
        run_synthesis(FlowContext.build(bench.core_spec_3d, bench.comm_spec))
        return build_s

    def _sweep(self, bench, store: ResultStore, objective: str):
        return sweep_frequencies(
            bench.core_spec_3d, bench.comm_spec, self.freqs,
            config=SynthesisConfig(objective=objective), jobs=self.jobs,
            store=store, stage_cache_dir=str(store.root),
            stage_cache_salt=store.salt,
        )

    def run_pass(self) -> Pass:
        root = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.workdir))
        units, sweeps = {}, {}
        try:
            self.meter.scale()
            start = time.perf_counter()
            store = ResultStore(root)
            for phase, objective in (
                ("cold", "power"), ("warm", "latency"), ("replay", "power")
            ):
                for i, bench in enumerate(self.benches):
                    began = time.perf_counter()
                    sweeps[phase, i] = self._sweep(bench, store, objective)
                    units[f"{phase}/{i}"] = (
                        (time.perf_counter() - began) * self.meter.scale()
                    )
            wall = time.perf_counter() - start
        finally:
            shutil.rmtree(root, ignore_errors=True)
        docs = {key: _points_doc(sweep.all_points())
                for key, sweep in sweeps.items()}
        out = Pass(
            wall_s=wall, units=units,
            digest=digest_of([[docs["cold", i], docs["warm", i]]
                              for i in range(len(self.benches))]),
            attempted=len(sweeps) * len(self.freqs),
            failed_ops=sum(len(s.quarantined) for s in sweeps.values()),
        )
        for i in range(len(self.benches)):
            cold, warm = sweeps["cold", i], sweeps["warm", i]
            out.check(bool(docs["cold", i]), f"build {i}: no design point")
            out.check(docs["replay", i] == docs["cold", i],
                      f"build {i}: replay sweep differs from the cold sweep")
            rerun = sorted(
                stage for stage, row in warm.stage_cache.items()
                if stage != "metrics" and row["misses"]
            )
            out.check(not rerun, f"build {i}: warm-adjacent sweep re-ran "
                                 f"upstream stages {rerun}")
            if docs["cold", i]:
                out.noc_power_mw += cold.best_power().total_power_mw
        for sweep in sweeps.values():
            for row in sweep.stage_cache.values():
                for key, value in row.items():
                    name = f"stagecache.{key}"
                    out.counters[name] = out.counters.get(name, 0) + value
        return out


# --------------------------------------------------------------------------
# sim_serve: the `serve` / `cli sim --batch` path
# --------------------------------------------------------------------------

class SimServe(Workload):
    """Two batched ``sim`` jobs served round-robin by a fresh campaign
    service, then the bernoulli job resubmitted and served from the store."""

    name = "sim_serve"
    replays = 5

    def setup(self) -> float:
        (bench,), build_s = self._timed_build([("d26_media", 0)])
        n_seeds, cycles, warmup = (2, 300, 100) if self.tiny else (20, 1000, 200)
        base = {
            "kind": "sim", "benchmark": "d26_media",
            "seeds": list(range(1000 * self.seed, 1000 * self.seed + n_seeds)),
            "injection_scales": [0.3, 1.0], "cycles": cycles,
            "warmup": warmup, "batch": 16,
        }
        self.bernoulli = dict(base, name="bernoulli", scenarios=["bernoulli"])
        self.mixed = dict(base, name="mixed", scenarios=["hotspot", "bursty"])
        # Pre-seed the prerequisite synthesis: compiling a sim campaign
        # runs it through the store, which later passes copy.
        self.template = self.workdir / f"template-{time.perf_counter_ns()}"
        spec = CampaignSpec.from_dict(self.bernoulli)
        store = ResultStore(self.template)
        self.bern_tasks = compile_campaign(spec, store=store)
        self.mixed_tasks = compile_campaign(
            CampaignSpec.from_dict(self.mixed), store=store
        )
        # The campaign's prerequisite, fetched back for its power.
        prereq = run_tasks([SynthesisTask(
            key=("campaign-synthesis", spec.benchmark, spec.dims),
            core_spec=bench.core_spec_3d, comm_spec=bench.comm_spec,
            config=spec.base_config(),
        )], store=store)[0]
        self.noc_power_mw = prereq.result.best(
            spec.base_config().objective
        ).total_power_mw
        library = default_library()
        topology = self.bern_tasks[0].topology
        zero_load = [
            flow_latency_cycles(topology, flow, library)
            for flow in topology.routes
        ]
        self.analytic_latency = sum(zero_load) / len(zero_load)
        return build_s

    @staticmethod
    def _rows(blob: bytes, tasks):
        """``(scenario label, scale, stats)`` per replication of one job's
        result file (written by the service in task order)."""
        return [
            (task.scenario.label(), task.injection_scale, stats)
            for task, (_key, payload) in zip(tasks, pickle.loads(blob))
            for stats in payload
        ]

    @staticmethod
    def _rows_doc(rows) -> list:
        return [[label, scale, _stats_doc(s)] for label, scale, s in rows]

    def run_pass(self) -> Pass:
        root = Path(tempfile.mkdtemp(prefix="spool-", dir=self.workdir))
        shutil.copytree(self.template, root / "store")
        svc = CampaignService(root, jobs=1)
        units, cold_s = {}, 0.0
        try:
            self.meter.scale()
            start = time.perf_counter()
            jobs = [svc.submit(self.bernoulli), svc.submit(self.mixed)]
            # Round-robin until idle, one unit per scheduling turn.
            step = 0
            while True:
                began = time.perf_counter()
                if not svc.step():
                    break
                elapsed = time.perf_counter() - began
                cold_s += elapsed
                units[f"cold/step-{step:03d}"] = elapsed * self.meter.scale()
                step += 1
            replay_jobs = []
            for i in range(self.replays):
                began = time.perf_counter()
                replay_jobs.append(svc.submit(self.bernoulli))
                svc.run_until_idle(poll_inbox=False)
                elapsed = time.perf_counter() - began
                units[f"warm/replay-{i}"] = elapsed * self.meter.scale()
            wall = time.perf_counter() - start
            done = set(svc.completed)
            blobs = {j: (svc.paths.results / f"{j}.pkl").read_bytes()
                     for j in jobs + replay_jobs if j in done}
        finally:
            svc.close()
            shutil.rmtree(root, ignore_errors=True)
        all_jobs = jobs + replay_jobs
        out = Pass(
            wall_s=wall, units=units, digest="",
            attempted=len(all_jobs), failed_ops=len(set(all_jobs) - done),
        )
        if out.failed_ops:
            out.check(False, f"{out.failed_ops} sim job(s) failed")
            return out
        rows = []  # (scenario label, scale, stats) over both cold jobs
        for job, tasks in zip(jobs, (self.bern_tasks, self.mixed_tasks)):
            rows.extend(self._rows(blobs[job], tasks))
        out.attempted += len(rows)
        out.digest = digest_of(self._rows_doc(rows))
        light = [s for label, scale, s in rows
                 if label == "bernoulli" and scale == 0.3]
        out.check(bool(light) and all(s.delivery_ratio == 1.0 for s in light),
                  "bernoulli scale-0.3 delivery ratio is not exactly 1.0")
        # Decoded, not raw bytes: a batched job's result file pickles the
        # replications of a computed chunk with shared sub-objects, while
        # store-served replications are independent copies.
        cold_doc = self._rows_doc(self._rows(blobs[jobs[0]], self.bern_tasks))
        for job in replay_jobs:
            replayed = self._rows(blobs[job], self.bern_tasks)
            out.check(self._rows_doc(replayed) == cold_doc,
                      f"replayed job {job} differs from the cold job")
        repcycles = sum(s.cycles + s.drain_cycles for _l, _s, s in rows)
        out.sim_kcycles_per_s = repcycles / cold_s / 1000.0
        out.latency_gap_cyc = (
            sum(s.avg_packet_latency for s in light) / len(light)
            - self.analytic_latency
        )
        out.noc_power_mw = self.noc_power_mw
        return out

    def summarize(self, passes: Sequence[Pass]) -> Dict[str, float]:
        """``warm_s`` is one store-served resubmission."""
        out = super().summarize(passes)
        out["warm_s"] /= self.replays
        return out


WORKLOADS = {cls.name: cls for cls in (SynthRegistry, SweepCached, SimServe)}
