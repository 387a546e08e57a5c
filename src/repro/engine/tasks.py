"""Pickling-safe task descriptors for the parallel engine.

Four task types cross the ``ProcessPoolExecutor`` boundary:

* :class:`SynthesisTask` — one architectural point of the Fig. 3 outer
  loop: a (core spec, communication spec, configuration) triple plus an
  opaque ``key`` the caller uses to file the merged result. The worker
  runs the *whole* staged flow for that point, a stage-cached one on
  the caller's store (:func:`serving_store`).
* :class:`CandidateTask` — one connectivity candidate *inside* a synthesis
  run: the same value objects plus the candidate's
  :class:`~repro.core.pipeline.CandidateRequest` (phase, switch counts,
  θ); it is partitioned and evaluated through the fixed Fig. 3 stage
  sequence. ``run_synthesis`` hands every round of its switch-count sweep
  to ``run_tasks`` as these, at any ``jobs``: in-process through
  :func:`run_task` at ``jobs=1``, across the pool otherwise. The run's
  context and stage-cache handle wait for them in a per-process slot
  (:func:`seed_context`).
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
value objects, so they pickle untouched — no open file handles, no RNG
state, no references back into the parent's topology objects.

Infeasible sweep points (a single flow exceeding link capacity) are marked
``skip=True`` at task-build time and short-circuit to an empty
:class:`~repro.core.design_point.SynthesisResult` without paying a worker
round-trip, mirroring the serial sweeps' behaviour.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.core.config import SynthesisConfig
from repro.errors import EngineError, SupervisionError
from repro.models.library import NocLibrary
from repro.spec.comm_spec import CommSpec
from repro.spec.core_spec import CoreSpec, is_finite_real, is_integer


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
        skip: Pre-determined infeasible point — the engine returns an empty
            result without running synthesis.
        skip_reason: Human-readable note for reports/logs.
        stage_cache_dir / stage_cache_salt: Optional per-stage memoization
            (see :mod:`repro.engine.stagecache`) in the store at this
            directory (:func:`serving_store`). Excluded from the task
            fingerprint — results are bit-identical with or without it.
    """

    #: Results-invariant knobs: where stage results are memoised must not
    #: split the whole-task cache.
    __fingerprint_exclude__ = ("stage_cache_dir", "stage_cache_salt")

    key: Hashable
    core_spec: CoreSpec
    comm_spec: CommSpec
    config: SynthesisConfig
    library: Optional[NocLibrary] = None
    skip: bool = False
    skip_reason: str = ""
    stage_cache_dir: Optional[str] = None
    stage_cache_salt: Optional[str] = None


@dataclass(frozen=True)
class CandidateTask:
    """One candidate evaluation of a single synthesis run."""

    __fingerprint_exclude__ = ("stage_cache_dir", "stage_cache_salt")

    key: Hashable
    core_spec: CoreSpec
    comm_spec: CommSpec
    config: SynthesisConfig
    request: object
    library: Optional[NocLibrary] = None
    #: Parent-generated token naming the run's slot (:func:`seed_context`):
    #: candidate tasks sharing a token share one context and one
    #: stage-cache handle per process.
    context_token: Optional[str] = None
    #: Per-stage memoization spec (see :class:`SynthesisTask`), read only
    #: where the run's slot is missing (a worker started without ``fork``):
    #: the slot is then rebuilt from the task and opens its own handle.
    stage_cache_dir: Optional[str] = None
    stage_cache_salt: Optional[str] = None


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
    packet_length_flits: int = 4
    seed: int = 0
    cycles: int = 20_000
    warmup: int = 2_000
    injection_scale: float = 1.0
    scenario: Optional[object] = None


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
    packet_length_flits: int = 4
    cycles: int = 20_000
    warmup: int = 2_000
    injection_scale: float = 1.0
    scenario: Optional[object] = None

    def expand_for_store(self) -> Tuple[SimulationTask, ...]:
        """The batch's store identity: one solo task per replication."""
        return tuple(
            SimulationTask(
                key=(self.key, seed),
                topology=self.topology,
                library=self.library,
                packet_length_flits=self.packet_length_flits,
                seed=seed,
                cycles=self.cycles,
                warmup=self.warmup,
                injection_scale=self.injection_scale,
                scenario=self.scenario,
            )
            for seed in self.seeds
        )

    def narrow(self, indices: Tuple[int, ...]) -> "BatchSimulationTask":
        """The sub-batch holding only the replications at ``indices``."""
        return dataclasses.replace(
            self, seeds=tuple(self.seeds[i] for i in indices)
        )


def sim_param_issues(
    *, seeds, injection_scales, cycles, warmup, packet_length_flits, batch,
) -> List[Tuple[str, str]]:
    """Every problem with a sim campaign's traffic knobs, as ``(JSON path,
    message)`` pairs — the one owner of these rules: seeds are integers
    >= 0 and injection scales positive finite numbers, neither list empty;
    ``cycles > warmup >= 0`` (filed under ``warmup``); ``packet_length_flits``
    and ``batch`` at least 1 (``batch=None``: one task per seed)."""
    issues: List[Tuple[str, Optional[str]]] = [
        (key, f"{key} must not be empty")
        for key, values in (
            ("seeds", seeds), ("injection_scales", injection_scales)
        )
        if not values
    ]
    for i, seed in enumerate(seeds):
        issues.append((f"seeds[{i}]", _count_problem("seed", seed, 0)))
    for i, scale in enumerate(injection_scales):
        if not (is_finite_real(scale) and scale > 0):
            issues.append((f"injection_scales[{i}]", "injection scales must "
                           f"be positive finite numbers, got {scale!r}"))
    for key, value, low in (
        ("cycles", cycles, None), ("warmup", warmup, 0),
        ("packet_length_flits", packet_length_flits, 1),
        ("batch", 1 if batch is None else batch, 1),
    ):
        issues.append((key, _count_problem(key, value, low)))
    issues = [issue for issue in issues if issue[1] is not None]
    if not {"cycles", "warmup"} & {path for path, _ in issues} and (
        cycles <= warmup
    ):
        issues.append((
            "warmup", f"cycles must exceed warmup ({warmup}), got {cycles}"
        ))
    return issues


def check_sim_params(**params) -> None:
    """Raise :class:`~repro.errors.EngineError` naming every problem
    :func:`sim_param_issues` finds in ``params`` (its keywords)."""
    issues = sim_param_issues(**params)
    if issues:
        raise EngineError("; ".join(message for _, message in issues))


def _count_problem(name: str, value, low: Optional[int]) -> Optional[str]:
    if not is_integer(value):
        return f"{name} must be an integer, got {value!r}"
    if low is not None and value < low:
        return f"{name} must be >= {low}, got {value!r}"
    return None


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
    ``packet_length_flits``, ``cycles``, ``warmup``).
    ``batch`` ``None``/``1`` gives one :class:`SimulationTask` per seed
    keyed ``(label, scale, seed)``; ``K > 1`` groups each (scenario,
    scale)'s seeds, in seed order, into :class:`BatchSimulationTask` chunks
    of up to ``K`` keyed ``(label, scale, seeds)``, so the flattened rows
    land in exactly the solo campaign's order.
    """
    from repro.noc.scenarios import make_scenario

    check_sim_params(
        seeds=seeds, injection_scales=injection_scales, batch=batch,
        **{
            key: sim_params.get(key, getattr(SimulationTask, key))
            for key in ("cycles", "warmup", "packet_length_flits")
        },
    )
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
    completion order. A pool worker ships ``result`` as one pickle
    (:func:`run_task_pickled`), which the parent decodes once and files in
    its store as is; every result ``run_tasks`` returns holds the decoded
    object.

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
    stage-cached :class:`SynthesisTask` or :class:`CandidateTask` (a
    ``stats_dict()`` mapping, see
    :class:`~repro.engine.stagecache.StageCache`) so sweep summaries and
    the synthesis run's caller aggregate them, wherever the task ran; it
    lives on the *result envelope*, never inside the cached payload,
    keeping warm and cold payloads bit-identical.
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


def run_task(task, retries: int = 0) -> TaskResult:
    """Execute one engine task (worker entry point — must stay importable
    at module top level for pickling).

    A failed attempt re-runs at once, in the same process, up to
    ``retries`` extra times; a
    :class:`~repro.errors.SupervisionError` is never retried. The returned
    result records total ``attempts`` and accumulated ``elapsed_s``.
    """
    result = _attempt_task(task)
    for _ in range(retries):
        if result.error is None or isinstance(result.error, SupervisionError):
            break
        fresh = _attempt_task(task)
        fresh.elapsed_s += result.elapsed_s
        fresh.attempts = result.attempts + 1
        result = fresh
    return result


def run_task_pickled(task, retries: int = 0) -> TaskResult:
    """The pool's worker entry: :func:`run_task`, then the result pickled
    once (``pickle.HIGHEST_PROTOCOL``) and shipped as those bytes in
    ``result``. The parent decodes them once (:func:`unpickle_result`) and
    files the same bytes in its store, so a computed result is never
    pickled twice.

    A result or error that cannot cross the process boundary becomes an
    :class:`~repro.errors.EngineError` naming the task, so the pool runs on
    and the task's slot carries the failure like any task error.
    """
    result = run_task(task, retries)
    try:
        if result.error is None:
            result.result = pickle.dumps(
                result.result, protocol=pickle.HIGHEST_PROTOCOL
            )
        else:
            # Round-trip: an error that pickles but will not unpickle
            # would break the pool in the parent instead.
            pickle.loads(pickle.dumps(result.error))
    except Exception as exc:
        what = "result" if result.error is None else (
            f"error ({type(result.error).__qualname__})"
        )
        return _unshippable(result, f"its {what} cannot be pickled", exc)
    return result


def unpickle_result(result: TaskResult) -> Tuple[TaskResult, Optional[bytes]]:
    """Decode a :func:`run_task_pickled` result in the parent:
    ``(result with the object in place of the bytes, those bytes)``. The
    bytes are ``None`` for an error, which carries no payload; a payload
    that fails to unpickle becomes an :class:`~repro.errors.EngineError`
    result, as in the worker."""
    if result.error is not None:
        return result, None
    data = result.result
    # The collector is paused while the result's object graph is built:
    # otherwise those allocations trigger collections that rescan the
    # parent's whole heap (a full one costs ~25 ms in a d26_media sweep).
    collecting = gc.isenabled()
    gc.disable()
    try:
        result.result = pickle.loads(data)
    except Exception as exc:
        return _unshippable(result, "its result cannot be unpickled", exc), None
    finally:
        if collecting:
            gc.enable()
    return result, data


def _unshippable(result: TaskResult, problem: str, exc: Exception):
    """An :class:`~repro.errors.EngineError` result in place of
    ``result``, naming its task, ``problem`` and ``exc``. The task's own
    traceback is kept when it has one, else the one of ``exc``."""
    import traceback

    error = EngineError(
        f"task {result.key!r}: {problem} ({type(exc).__name__}: {exc})"
    )
    return TaskResult(
        key=result.key, error=error, elapsed_s=result.elapsed_s,
        attempts=result.attempts,
        traceback=result.traceback or traceback.format_exc(),
    )


def _attempt_task(task) -> TaskResult:
    """One execution of a task body (no retry logic)."""
    activate = getattr(task, "activate_fault", None)
    if activate is not None:
        # A fault-injection wrapper (repro.engine.faults.FaultyTask): fire
        # the fault, then run the wrapped task under the *wrapper's* key,
        # the one the caller files the result under.
        fault_result = _timed_task(task.key, activate)
        if fault_result.error is not None:
            return fault_result
        inner_result = _attempt_task(task.inner)
        inner_result.key = task.key
        inner_result.elapsed_s += fault_result.elapsed_s
        return inner_result
    if isinstance(task, CandidateTask):
        return _run_candidate_task(task)
    if isinstance(task, SimulationTask):
        return _run_simulation_task(task)
    if isinstance(task, BatchSimulationTask):
        return _run_batch_simulation_task(task)
    if task.skip:
        from repro.core.design_point import SynthesisResult

        return TaskResult(key=task.key, result=SynthesisResult(), skipped=True)

    stage_stats: dict = {}

    def body():
        from repro.core.synthesis import synthesize

        # A handle of its own: its counters then *are* this point's
        # stage-cache stats.
        stage_cache = _task_stage_cache(task)
        result = synthesize(
            task.core_spec, task.comm_spec, task.library, task.config,
            stage_cache=stage_cache,
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


def _run_simulation_task(task: SimulationTask) -> TaskResult:
    def body():
        from repro.noc.simulator import WormholeSimulator

        sim = WormholeSimulator(
            task.topology, task.library,
            packet_length_flits=task.packet_length_flits,
            seed=task.seed,
        )
        return sim.run(
            cycles=task.cycles, warmup=task.warmup,
            injection_scale=task.injection_scale, scenario=task.scenario,
        )

    return _timed_task(task.key, body)


def _run_batch_simulation_task(task: BatchSimulationTask) -> TaskResult:
    def body():
        if not task.seeds:
            return ()
        from repro.noc.simulator import WormholeSimulator

        sim = WormholeSimulator(
            task.topology, task.library,
            packet_length_flits=task.packet_length_flits,
            seed=task.seeds[0],
        )
        return tuple(sim.run_batch(
            list(task.seeds),
            cycles=task.cycles, warmup=task.warmup,
            injection_scale=task.injection_scale, scenario=task.scenario,
        ))

    return _timed_task(task.key, body)


def _run_candidate_task(task: CandidateTask) -> TaskResult:
    stage_stats: dict = {}

    def body():
        ctx, stage_cache = _candidate_context(task)
        if stage_cache is not None:
            # The run's one handle in this process: its counters restart
            # per candidate, so they ship back this candidate's alone.
            stage_cache.counters.clear()
        outcome = _candidate_pipeline().evaluate(
            ctx, task.request, stage_cache=stage_cache
        ).outcome()
        if stage_cache is not None:
            stage_stats.update(stage_cache.stats_dict())
        return outcome

    task_result = _timed_task(task.key, body)
    if stage_stats:
        task_result.stage_cache = stage_stats
    return task_result


@functools.lru_cache(maxsize=1)
def _candidate_pipeline():
    """The per-process pipeline every candidate task evaluates on. The
    stage cache memoises fingerprint prefixes per (stage instance,
    context), so consecutive tasks over one context share them only when
    they share the stage instances."""
    from repro.core.pipeline import Pipeline

    return Pipeline()


#: The store of the innermost ``run_tasks(..., store=)`` call running in
#: this process; fork workers inherit it.
_SERVING_STORE = None


@contextlib.contextmanager
def serving_store(store):
    """Serve stage-cached tasks from ``store`` while the block runs;
    ``None`` keeps the outer one (a synthesis's rounds)."""
    global _SERVING_STORE
    outer = _SERVING_STORE
    _SERVING_STORE = outer if store is None else store
    try:
        yield
    finally:
        _SERVING_STORE = outer


def _task_stage_cache(task):
    """A new :class:`StageCache` over the serving store when the task's
    stage-cache directory and salt name it, else over a store opened from
    them; ``None`` without a directory or when it is unusable (the task
    then runs uncached)."""
    cache_dir = getattr(task, "stage_cache_dir", None)
    if cache_dir is None:
        return None
    from repro.engine.stagecache import StageCache, open_stage_cache
    from repro.engine.store import resolve_salt
    from repro.errors import StoreError

    salt = getattr(task, "stage_cache_salt", None)
    store = _SERVING_STORE
    if store is not None and store.salt == resolve_salt(salt) and (
        Path(cache_dir).resolve() == store.root.resolve()
    ):
        return StageCache(store)
    try:
        return open_stage_cache(cache_dir, salt=salt)
    except StoreError:
        return None


#: Per-process slots of live synthesis runs: context token ->
#: ``(FlowContext, StageCache or None)``. Candidate tasks of one run share
#: the validated specs, comm graph and stage-cache handle instead of
#: rebuilding them per candidate. Keyed by the parent's unique token, so a
#: slot never serves a stale context to a different run.
_CTX_CACHE: dict = {}


def seed_context(token: str, ctx, stage_cache=None) -> None:
    """Seed run ``token``'s slot (parent side, before its first round):
    ``ctx`` and, given the caller's ``stage_cache``, one run-private
    :class:`~repro.engine.stagecache.StageCache` over its store, shared by
    in-process candidates and fork workers (which inherit the slot), so
    the run opens no second store. Candidates ship their own counters back
    (``TaskResult.stage_cache``) for the parent to fold into the caller's
    cache. Pair with :func:`release_context` in a ``finally`` block."""
    if stage_cache is not None:
        from repro.engine.stagecache import StageCache

        stage_cache = StageCache(stage_cache.store)
    _CTX_CACHE[token] = (ctx, stage_cache)


def release_context(token: str) -> None:
    """Drop a seeded slot so the run's specs don't outlive the run."""
    _CTX_CACHE.pop(token, None)


def _candidate_context(task: CandidateTask):
    """``(FlowContext, StageCache or None)`` for ``task``: its run's slot,
    else rebuilt from the task (a worker started without ``fork``) and
    kept as this process's one slot."""
    token = task.context_token
    if token in _CTX_CACHE:
        return _CTX_CACHE[token]
    from repro.core.pipeline import FlowContext

    slot = (
        FlowContext.build(
            task.core_spec, task.comm_spec, task.library, task.config
        ),
        _task_stage_cache(task),
    )
    if token is not None:
        _CTX_CACHE.clear()
        _CTX_CACHE[token] = slot
    return slot
