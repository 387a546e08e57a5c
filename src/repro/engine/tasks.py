"""Pickling-safe task descriptors for the parallel engine.

Two task granularities cross the ``ProcessPoolExecutor`` boundary:

* :class:`SynthesisTask` — one architectural point of the Fig. 3 outer
  loop: a (core spec, communication spec, configuration) triple plus an
  opaque ``key`` the caller uses to file the merged result. The worker
  runs the *whole* staged flow for that point.
* :class:`CandidateTask` — one connectivity candidate *inside* a synthesis
  run: the same value objects plus a pre-built
  :class:`~repro.core.assignment.Assignment` and the pipeline's stage
  sequence. ``synthesize(..., jobs=N)`` fans these out so a single run
  parallelises across its own switch-count sweep.
* :class:`FloorplanTask` / :class:`ConstrainedInsertTask` — one restart of
  a multi-start floorplan anneal (``anneal_floorplan(restarts=K, jobs=N)``
  and the constrained inserter's equivalent). Restarts are independently
  seeded, so the parent merges them deterministically by best cost.
* :class:`SimulationTask` — one wormhole-simulation run of a
  (seed × injection scale × traffic scenario) load-sweep campaign over an
  already-synthesized topology
  (``run_simulation_validation(..., jobs=N)``). Runs are deterministic in
  their parameters, so the merged campaign is bit-identical serial vs
  parallel.
* :class:`BatchSimulationTask` — K such replications of one traffic point
  in one worker round-trip (:meth:`WormholeSimulator.run_batch
  <repro.noc.simulator.WormholeSimulator.run_batch>`); per-replication
  results and store fingerprints are identical to K solo
  :class:`SimulationTask`\\ s.
  :func:`simulation_tasks` builds either kind for a whole campaign.

Tasks are plain frozen dataclasses built only from spec/config/library
value objects (and, for candidates, stateless stage instances), so they
pickle untouched — no open file handles, no RNG state, no references back
into the parent's topology objects.

Infeasible sweep points (a single flow exceeding link capacity) are marked
``skip=True`` at task-build time and short-circuit to an empty
:class:`~repro.core.design_point.SynthesisResult` without paying a worker
round-trip, mirroring the serial sweeps' behaviour.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.core.config import SynthesisConfig
from repro.models.library import NocLibrary
from repro.spec.comm_spec import CommSpec
from repro.spec.core_spec import CoreSpec


@dataclass(frozen=True)
class SynthesisTask:
    """One synthesis point of an architectural sweep.

    Attributes:
        key: Caller-chosen hashable identifier (e.g. ``("frequency", 400.0)``
            or a :class:`~repro.engine.grid.GridPoint`) used to merge results
            deterministically.
        core_spec: Core floorplan/layer specification.
        comm_spec: Traffic specification.
        config: Fully resolved configuration for this point (the sweep
            parameter already applied via ``SynthesisConfig.with_``).
        library: Component library; ``None`` selects the default library in
            the worker (cheaper to pickle).
        stages: Optional stage sequence (names or instances, see
            :func:`repro.core.pipeline.build_pipeline`) substituting the
            default pipeline in the worker.
        skip: Pre-determined infeasible point — the engine returns an empty
            result without running synthesis.
        skip_reason: Human-readable note for reports/logs.
        stage_cache_dir / stage_cache_salt: Optional per-stage memoization
            (see :mod:`repro.engine.stagecache`): the worker opens a
            :class:`~repro.engine.stagecache.StageCache` at this directory
            and serves/checkpoints individual pipeline stages. Excluded
            from the task fingerprint — results are bit-identical with or
            without it.
    """

    #: Results-invariant knobs: where stage results are memoised must not
    #: split the whole-task cache.
    __fingerprint_exclude__ = ("stage_cache_dir", "stage_cache_salt")

    key: Hashable
    core_spec: CoreSpec
    comm_spec: CommSpec
    config: SynthesisConfig
    library: Optional[NocLibrary] = None
    stages: Optional[Tuple] = None
    skip: bool = False
    skip_reason: str = ""
    stage_cache_dir: Optional[str] = None
    stage_cache_salt: Optional[str] = None


@dataclass(frozen=True)
class CandidateTask:
    """One candidate evaluation of a single synthesis run (``jobs=N``).

    The ``stages`` tuple carries the parent pipeline's stage instances so
    substituted stages survive the process boundary; stages must therefore
    be defined at module top level (see :class:`repro.core.pipeline.Stage`).
    """

    __fingerprint_exclude__ = ("stage_cache_dir", "stage_cache_salt")

    key: Hashable
    core_spec: CoreSpec
    comm_spec: CommSpec
    config: SynthesisConfig
    assignment: object
    library: Optional[NocLibrary] = None
    stages: Optional[Tuple] = None
    #: Parent-generated token identifying the run's FlowContext; candidate
    #: tasks sharing a token share the rebuilt context in the worker.
    context_token: Optional[str] = None
    #: Per-stage memoization spec (see :class:`SynthesisTask`); the worker
    #: memoises one cache handle per (dir, salt) across candidates.
    stage_cache_dir: Optional[str] = None
    stage_cache_salt: Optional[str] = None


@dataclass(frozen=True)
class FloorplanTask:
    """One restart of a multi-start floorplan anneal.

    ``nets``/``anchors`` are the net dicts' ``items()`` tuples — tuples
    pickle cheaply and preserve declaration order, which the incremental
    evaluator's fixed-order wirelength summation depends on. ``initial_sp``
    is shared across restarts so the grid seed pair is built once.
    """

    key: Hashable
    widths: Tuple[float, ...]
    heights: Tuple[float, ...]
    nets: Tuple = ()
    anchors: Tuple = ()
    wirelength_weight: float = 1.0
    seed: int = 0
    moves: int = 4000
    initial_temperature: float = 1.0
    cooling: float = 0.995
    initial_sp: Optional[object] = None
    restart: int = 0


@dataclass(frozen=True)
class ConstrainedInsertTask:
    """One restart of a multi-start constrained insertion (Sec. VIII-D).

    Carries the placed/new component dataclasses verbatim; the worker
    re-derives the (cheap) annealing problem and returns
    ``(best_cost, best_sequence_pair)`` so the parent packs the winner once.
    """

    key: Hashable
    existing: Tuple = ()
    new_components: Tuple = ()
    seed: int = 0
    moves: int = 3000
    displacement_weight: float = 1.0
    initial_temperature: float = 1.0
    cooling: float = 0.995
    restart: int = 0


@dataclass(frozen=True)
class SimulationTask:
    """One wormhole-simulation run of a traffic-sweep campaign.

    Carries the routed :class:`~repro.noc.topology.Topology` by value (plain
    dataclasses — pickles untouched) plus the simulation knobs; the worker
    rebuilds the simulator and runs the array-based engine. ``scenario`` is
    a :mod:`repro.noc.scenarios` spec (name, ``"name:arg"`` string or frozen
    scenario dataclass — all picklable).
    """

    key: Hashable
    topology: object
    library: Optional[NocLibrary] = None
    buffer_depth: int = 4
    packet_length_flits: int = 4
    seed: int = 0
    cycles: int = 20_000
    warmup: int = 2_000
    injection_scale: float = 1.0
    scenario: Optional[object] = None
    drain_limit: Optional[int] = None


@dataclass(frozen=True)
class BatchSimulationTask:
    """K replications of one traffic point, one worker round-trip.

    The same knobs as :class:`SimulationTask` with ``seeds`` (a tuple of K
    replication seeds) in place of ``seed``; the worker runs them one after
    another (:meth:`~repro.noc.simulator.WormholeSimulator.run_batch`) and
    returns a tuple of K :class:`~repro.noc.simulator.SimulationStats` in
    seed order, each bit-identical to a solo :class:`SimulationTask` at
    that seed.

    A batch has no store identity of its own: :meth:`expand_for_store`
    names its per-replication solo tasks and the executor fingerprints
    those individually, so a warm store serves a batched campaign from a
    solo-run cache (and vice versa), and a partially-cached batch is
    :meth:`narrow`\\ ed to just its missing replications. The chunking —
    which seeds share a batch, and the batch width itself — therefore never
    splits the cache.
    """

    key: Hashable
    topology: object
    seeds: Tuple[int, ...] = (0,)
    library: Optional[NocLibrary] = None
    buffer_depth: int = 4
    packet_length_flits: int = 4
    cycles: int = 20_000
    warmup: int = 2_000
    injection_scale: float = 1.0
    scenario: Optional[object] = None
    drain_limit: Optional[int] = None

    def expand_for_store(self) -> Tuple[SimulationTask, ...]:
        """The batch's store identity: one solo task per replication."""
        return tuple(
            SimulationTask(
                key=(self.key, seed),
                topology=self.topology,
                library=self.library,
                buffer_depth=self.buffer_depth,
                packet_length_flits=self.packet_length_flits,
                seed=seed,
                cycles=self.cycles,
                warmup=self.warmup,
                injection_scale=self.injection_scale,
                scenario=self.scenario,
                drain_limit=self.drain_limit,
            )
            for seed in self.seeds
        )

    def narrow(self, indices: Tuple[int, ...]) -> "BatchSimulationTask":
        """The sub-batch holding only the replications at ``indices``."""
        return dataclasses.replace(
            self, seeds=tuple(self.seeds[i] for i in indices)
        )


def check_batch(batch: Optional[int]) -> None:
    """Reject a sim-campaign ``batch`` below 1 (``None`` = one per seed)."""
    if batch is not None and batch < 1:
        from repro.errors import EngineError

        raise EngineError(f"batch must be >= 1, got {batch}")


def simulation_tasks(
    topology,
    scenarios: Sequence,
    injection_scales: Sequence[float],
    seeds: Sequence[int],
    batch: Optional[int] = None,
    **sim_params,
) -> List:
    """The (scenario × injection scale × seed) task list of a sim campaign.

    ``scenarios`` are :mod:`repro.noc.scenarios` specs; ``sim_params`` are
    the remaining :class:`SimulationTask` fields (``library``,
    ``packet_length_flits``, ``cycles``, ``warmup``, ``drain_limit``).
    ``batch`` ``None``/``1`` gives one :class:`SimulationTask` per seed
    keyed ``(label, scale, seed)``; ``K > 1`` groups each (scenario,
    scale)'s seeds, in seed order, into :class:`BatchSimulationTask` chunks
    of up to ``K`` keyed ``(label, scale, seeds)``, so the flattened rows
    land in exactly the solo campaign's order.
    """
    from repro.noc.scenarios import make_scenario

    check_batch(batch)
    scenario_objs = [make_scenario(s) for s in scenarios]
    seeds = tuple(int(s) for s in seeds)
    if batch is None or batch == 1:
        return [
            SimulationTask(
                key=(scen.label(), scale, seed), topology=topology,
                seed=seed, injection_scale=scale, scenario=scen,
                **sim_params,
            )
            for scen in scenario_objs
            for scale in injection_scales
            for seed in seeds
        ]
    chunks = [seeds[i:i + batch] for i in range(0, len(seeds), batch)]
    return [
        BatchSimulationTask(
            key=(scen.label(), scale, chunk), topology=topology,
            seeds=chunk, injection_scale=scale, scenario=scen,
            **sim_params,
        )
        for scen in scenario_objs
        for scale in injection_scales
        for chunk in chunks
    ]


@dataclass
class TaskResult:
    """Outcome of one task: a result or a captured error, never both.

    ``result`` is a :class:`~repro.core.design_point.SynthesisResult` for a
    :class:`SynthesisTask` and a
    :class:`~repro.core.pipeline.CandidateOutcome` for a
    :class:`CandidateTask`.

    Workers never raise across the process boundary; errors are captured so
    the executor can re-raise them *deterministically* (first failing task
    in submission order, exactly like a serial loop) instead of in
    completion order.

    ``cached=True`` marks a result served from a
    :class:`~repro.engine.store.ResultStore` instead of computed; the
    payload is bit-identical to a fresh computation, only ``elapsed_s``
    (the fetch cost, effectively zero) differs.

    ``attempts`` counts executions of the task body (1 without retries);
    ``elapsed_s`` accumulates across attempts. ``traceback`` carries the
    worker-side formatted traceback of ``error`` — exceptions crossing the
    pickle boundary lose ``__traceback__``, so this string is the only
    record of *where* a remote failure happened.

    ``stage_cache`` carries the per-stage hit/miss/bytes counters of a
    stage-cached :class:`SynthesisTask` (a ``stats_dict()`` mapping, see
    :class:`~repro.engine.stagecache.StageCache`) so sweep summaries can
    aggregate them; it lives on the *result envelope*, never inside the
    cached payload, keeping warm and cold payloads bit-identical.
    """

    key: Hashable
    result: Optional[object] = None
    error: Optional[BaseException] = None
    elapsed_s: float = 0.0
    skipped: bool = False
    cached: bool = False
    attempts: int = 1
    traceback: Optional[str] = None
    stage_cache: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def run_task(task, retry=None) -> TaskResult:
    """Execute one engine task (worker entry point — must stay importable
    at module top level for pickling).

    ``retry`` is an optional :class:`~repro.engine.supervise.RetryPolicy`:
    a failed attempt whose error the policy accepts is re-run (same process,
    deterministic backoff) up to ``retry.max_retries`` extra times. The
    returned result records total ``attempts`` and accumulated ``elapsed_s``.
    """
    result = _attempt_task(task)
    if retry is None:
        return result
    for retry_number in range(1, retry.max_retries + 1):
        if result.error is None or result.skipped:
            break
        if not retry.should_retry(result.error):
            break
        retry.wait(retry_number)
        fresh = _attempt_task(task)
        fresh.elapsed_s += result.elapsed_s
        fresh.attempts = result.attempts + 1
        result = fresh
    return result


def run_chunk(chunk, retry=None):
    """Worker entry point for chunked submission (top level: picklable)."""
    return [run_task(task, retry) for task in chunk]


def _attempt_task(task) -> TaskResult:
    """One execution of a task body (no retry logic)."""
    activate = getattr(task, "activate_fault", None)
    if activate is not None:
        # A fault-injection wrapper (repro.engine.faults.FaultyTask): fire
        # the fault, then run the wrapped task under the *wrapper's* key —
        # the executor may have re-keyed the wrapper for store bookkeeping.
        fault_result = _timed_task(task.key, activate)
        if fault_result.error is not None:
            return fault_result
        inner_result = _attempt_task(task.inner)
        inner_result.key = task.key
        inner_result.elapsed_s += fault_result.elapsed_s
        return inner_result
    if isinstance(task, CandidateTask):
        return _run_candidate_task(task)
    if isinstance(task, FloorplanTask):
        return _run_floorplan_task(task)
    if isinstance(task, ConstrainedInsertTask):
        return _run_constrained_task(task)
    if isinstance(task, SimulationTask):
        return _run_simulation_task(task)
    if isinstance(task, BatchSimulationTask):
        return _run_batch_simulation_task(task)
    if task.skip:
        from repro.core.design_point import SynthesisResult

        return TaskResult(key=task.key, result=SynthesisResult(), skipped=True)

    stage_stats: dict = {}

    def body():
        from repro.core.pipeline import build_pipeline
        from repro.core.synthesis import synthesize

        pipeline = build_pipeline(task.stages) if task.stages else None
        # A fresh handle per task: its counters then *are* this point's
        # stage-cache stats (open cost is trivial next to a synthesis).
        stage_cache = _fresh_stage_cache(task)
        result = synthesize(
            task.core_spec, task.comm_spec, task.library, task.config,
            pipeline=pipeline, stage_cache=stage_cache,
        )
        if stage_cache is not None:
            stage_stats.update(stage_cache.stats_dict())
        return result

    task_result = _timed_task(task.key, body)
    if stage_stats:
        task_result.stage_cache = dict(stage_stats)
    return task_result


def _timed_task(key, fn) -> TaskResult:
    """Run one task body, capturing wall clock and any error (never raises
    across the process boundary — the executor re-raises deterministically).

    ``KeyboardInterrupt``/``SystemExit`` are cancellations, not task
    failures: they propagate, so an interrupted campaign tears down promptly
    instead of filing the interrupt as just another task error.
    """
    import time

    start = time.perf_counter()
    try:
        result = fn()
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:
        import traceback

        return TaskResult(
            key=key, error=exc, elapsed_s=time.perf_counter() - start,
            traceback=traceback.format_exc(),
        )
    return TaskResult(
        key=key, result=result, elapsed_s=time.perf_counter() - start
    )


def _run_floorplan_task(task: FloorplanTask) -> TaskResult:
    def body():
        from repro.floorplan.annealer import run_anneal_restart

        return run_anneal_restart(task)

    return _timed_task(task.key, body)


def _run_constrained_task(task: ConstrainedInsertTask) -> TaskResult:
    def body():
        from repro.floorplan.constrained import run_insertion_restart

        return run_insertion_restart(task)

    return _timed_task(task.key, body)


def _run_simulation_task(task: SimulationTask) -> TaskResult:
    def body():
        from repro.noc.simulator import WormholeSimulator

        sim = WormholeSimulator(
            task.topology, task.library,
            buffer_depth=task.buffer_depth,
            packet_length_flits=task.packet_length_flits,
            seed=task.seed,
        )
        return sim.run(
            cycles=task.cycles, warmup=task.warmup,
            injection_scale=task.injection_scale,
            scenario=task.scenario, drain_limit=task.drain_limit,
        )

    return _timed_task(task.key, body)


def _run_batch_simulation_task(task: BatchSimulationTask) -> TaskResult:
    def body():
        if not task.seeds:
            return ()
        from repro.noc.simulator import WormholeSimulator

        sim = WormholeSimulator(
            task.topology, task.library,
            buffer_depth=task.buffer_depth,
            packet_length_flits=task.packet_length_flits,
            seed=task.seeds[0],
        )
        return tuple(sim.run_batch(
            list(task.seeds),
            cycles=task.cycles, warmup=task.warmup,
            injection_scale=task.injection_scale,
            scenario=task.scenario, drain_limit=task.drain_limit,
        ))

    return _timed_task(task.key, body)


def _run_candidate_task(task: CandidateTask) -> TaskResult:
    def body():
        from repro.core.pipeline import build_pipeline

        ctx = _candidate_context(task)
        pipeline = build_pipeline(task.stages)
        return pipeline.evaluate(
            ctx, task.assignment, stage_cache=_shared_stage_cache(task)
        ).outcome()

    return _timed_task(task.key, body)


#: Per-process stage-cache handles, memoised by (directory, salt) so
#: consecutive candidate tasks of one run share a handle; a failed open is
#: memoised too (as None) so an unusable cache directory costs one attempt,
#: not one per candidate.
_STAGE_CACHE_HANDLES: dict = {}


def _fresh_stage_cache(task):
    """A new worker-side :class:`StageCache`, or ``None`` (no spec on the
    task, or an unusable directory — the task then runs uncached)."""
    cache_dir = getattr(task, "stage_cache_dir", None)
    if cache_dir is None:
        return None
    from repro.engine.stagecache import open_stage_cache
    from repro.errors import StoreError

    try:
        return open_stage_cache(
            cache_dir, salt=getattr(task, "stage_cache_salt", None)
        )
    except StoreError:
        return None


def _shared_stage_cache(task):
    cache_dir = getattr(task, "stage_cache_dir", None)
    if cache_dir is None:
        return None
    key = (cache_dir, getattr(task, "stage_cache_salt", None))
    if key not in _STAGE_CACHE_HANDLES:
        _STAGE_CACHE_HANDLES[key] = _fresh_stage_cache(task)
    return _STAGE_CACHE_HANDLES[key]


#: Single-slot per-process context cache: consecutive candidate tasks of one
#: run share the validated specs / comm graph instead of rebuilding them per
#: candidate. Keyed by the parent's unique ``context_token`` so the cache can
#: never serve a stale context to a different run.
_CTX_CACHE: dict = {}


def seed_context(token: str, ctx) -> None:
    """Pre-seed the candidate-context cache (parent side, before fan-out).

    Fork-context workers inherit the seeded slot, so no worker — nor the
    executor's in-process serial fallback — pays spec validation and comm
    graph construction again per candidate. Pair with
    :func:`release_context` once the batch is merged.
    """
    _CTX_CACHE.clear()
    _CTX_CACHE[token] = ctx


def release_context(token: str) -> None:
    """Drop a seeded context so the run's specs don't outlive the run."""
    _CTX_CACHE.pop(token, None)


def _candidate_context(task: CandidateTask):
    from repro.core.pipeline import FlowContext

    token = task.context_token
    if token is not None and token in _CTX_CACHE:
        return _CTX_CACHE[token]
    ctx = FlowContext.build(
        task.core_spec, task.comm_spec, task.library, task.config
    )
    if token is not None:
        _CTX_CACHE.clear()
        _CTX_CACHE[token] = ctx
    return ctx
