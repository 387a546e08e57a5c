"""The parallel sweep executor: fan tasks across a supervised process pool.

The architectural sweep of Fig. 3 is embarrassingly parallel — every
(frequency, α, link width, switch-count range) point runs the full
synthesis flow independently — so the executor's job is plumbing, done
carefully:

* **fork-aware worker pool** — on platforms with ``fork`` the workers
  inherit the parent's imported modules and the task's specs via
  copy-on-write, so per-task pickling cost is just the small spec/config
  dataclasses. A result comes back as one pickle, made in the worker
  (:func:`~repro.engine.tasks.run_task_pickled`); the parent decodes it
  once, and that same pickle is the store's checkpoint, so a computed
  result is never pickled twice;
* **deterministic merging** — results are returned in *submission order*
  regardless of completion order, and a failing task re-raises its error
  exactly where a serial loop would have (first failure in task order),
  with the worker-side traceback chained on for debuggability;
* **graceful serial fallback** — ``jobs=1``, single-task lists and pool
  creation failures (sandboxed environments without ``/dev/shm``, missing
  ``multiprocessing`` primitives) degrade to the plain in-process loop
  that produces identical results;
* **supervision** (:mod:`repro.engine.supervise`) — one
  ``supervision=Supervision(...)`` value: ``retries`` re-runs a failed
  task at once, inside the worker; ``task_timeout_s`` arms a watchdog
  that kills and regenerates a pool stuck past a task's deadline instead
  of blocking forever; a broken pool (worker OOM-killed, segfaulted) is
  recovered by *attributing* the crasher — each unfinished task re-runs
  alone in a fresh single-worker pool, the one that crashes it again is
  quarantined as a structured :class:`~repro.errors.TaskQuarantinedError`
  result — and restarting the pool (a bounded number of times), so the
  rest of the campaign completes. ``on_error`` decides whether
  supervision errors raise (``"raise"``, default) or stay inspectable in
  the results (``"quarantine"``);
* **progress callbacks** — ``progress(done, total, key)`` fires in the
  parent as points finish, for CLI spinners and logging;
* **persistent result reuse** — ``store=`` plugs in a content-addressed
  :class:`~repro.engine.store.ResultStore`: already-computed tasks are
  served from disk (``TaskResult.cached``), misses are computed as usual
  and *checkpointed incrementally* as they complete, so an interrupted
  campaign resumes from the store with merged results bit-identical to an
  uninterrupted cold run. Failed, timed-out and quarantined tasks are
  never cached.

One path runs every task list: store hits are served first, then the
misses (every task, without a store) run serially or on the pool, each
completion filed by its index — checkpointed, merged into its submission
slot and reported to ``progress``.

``jobs`` resolution: ``None`` or ``0`` → ``$REPRO_ENGINE_JOBS`` if set,
else ``os.cpu_count()``; ``1`` → serial; ``n >= 2`` → pool of ``n``
workers. Negative values raise :class:`~repro.errors.EngineError`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.supervise import (
    Supervision,
    attach_remote_traceback,
    run_supervised_pool,
)
from repro.engine.tasks import (
    SynthesisTask,
    TaskResult,
    run_task,
    serving_store,
    unpickle_result,
)
from repro.errors import EngineError

#: Progress callback signature: (completed_count, total, key_just_done).
ProgressFn = Callable[[int, int, object], None]

_JOBS_ENV = "REPRO_ENGINE_JOBS"

_DEFAULT_SUP = Supervision()


def resolve_jobs(jobs: Optional[int]) -> int:
    """Resolve a ``jobs`` request to a concrete worker count (>= 1)."""
    if jobs is None or jobs == 0:
        env = os.environ.get(_JOBS_ENV)
        if env is not None:
            try:
                jobs = int(env)
            except ValueError:
                raise EngineError(
                    f"${_JOBS_ENV} must be an integer, got {env!r}"
                )
            if jobs <= 0:
                raise EngineError(
                    f"${_JOBS_ENV} must be positive, got {jobs}"
                )
            return jobs
        return os.cpu_count() or 1
    if jobs < 0:
        raise EngineError(f"jobs must be >= 0 (0 = auto), got {jobs}")
    return jobs


def run_tasks(
    tasks: Sequence[SynthesisTask],
    *,
    jobs: Optional[int] = 1,
    progress: Optional[ProgressFn] = None,
    raise_errors: bool = True,
    store=None,
    supervision: Optional[Supervision] = None,
) -> List[TaskResult]:
    """Run every task and return results in submission order.

    Args:
        tasks: Task descriptors (see :mod:`repro.engine.tasks`).
        jobs: Worker processes; ``1`` = serial (the default, so library
            callers opt in to parallelism), ``None``/``0`` = auto.
        progress: Optional callback fired after each completed point.
        raise_errors: Re-raise the first (in task order) captured error.
            With ``False`` the caller inspects ``TaskResult.error`` itself.
        store: Optional :class:`~repro.engine.store.ResultStore`. Hits are
            served from disk without paying a worker and report progress
            first (in submission order); misses run normally and are
            written to the store *as they complete* (incremental
            checkpointing), errors and pre-skipped tasks excluded. Merged
            results are bit-identical with and without a store. Task
            payloads must not be mutated during the call: a miss is
            fingerprinted at lookup and filed under that address after
            it runs, and each shared payload is encoded once per call.
        supervision: Optional :class:`~repro.engine.supervise.Supervision`
            — retries, per-task deadline and ``on_error`` mode. ``None``
            means no retries, no deadline, supervision errors raise.
    """
    sup = supervision if supervision is not None else _DEFAULT_SUP
    tasks = list(tasks)
    workers = resolve_jobs(jobs)
    total = len(tasks)
    results: List[Optional[TaskResult]] = [None] * total
    todo: List[Tuple[int, SynthesisTask]] = []
    misses: Dict[int, _Miss] = {}
    # Encoded payload fields by identity, shared by every fingerprint of
    # this call only (see store._fingerprint).
    memo: dict = {}
    done = 0

    def finish(
        i: int, result: TaskResult, pickled: Optional[bytes] = None
    ) -> None:
        nonlocal done
        # Checkpoint first: a progress callback may raise (deliberately, to
        # abort a campaign) and the finished work must already be on disk.
        if i in misses:
            result = misses[i].file(store, result, pickled)
        results[i] = result
        done += 1
        if progress is not None:
            progress(done, total, tasks[i].key)

    for i, task in enumerate(tasks):
        found = _lookup(store, task, memo) if store is not None else None
        if isinstance(found, TaskResult):
            finish(i, found)
            continue
        if found is not None:
            misses[i] = found
            task = found.task
        todo.append((i, task))

    with serving_store(store):
        ran = workers > 1 and len(todo) > 1 and run_supervised_pool(
            [task for _i, task in todo], workers, sup,
            lambda j, result: finish(todo[j][0], *unpickle_result(result)),
        )
        if not ran:
            for i, task in todo:
                finish(i, run_task(task, sup.retries))
                if raise_errors:  # stop at the first failure, like a loop
                    _raise_first([results[i]], sup)
    if raise_errors:
        _raise_first(results, sup)
    return results


# --------------------------------------------------------------------------
# internals
# --------------------------------------------------------------------------

def _raise_first(results: Sequence[TaskResult], sup: Supervision) -> None:
    for result in results:
        error = result.error
        if error is None:
            continue
        if not sup.should_raise(error):
            continue
        raise attach_remote_traceback(error, result.traceback)


@dataclass
class _Miss:
    """A task the store could not serve: what to compute, and where to
    file its result once it completes."""

    #: The task to run — for a set-addressed task, narrowed to its
    #: missing sub-tasks.
    task: SynthesisTask
    fingerprint: Optional[str] = None
    #: Set-addressed task only: every sub-task's cached payload (``None``
    #: at the ``missing`` sub-indices) and the missing ones' fingerprints.
    payloads: Optional[List[object]] = None
    missing: Tuple[int, ...] = ()
    missing_fps: Tuple[Optional[str], ...] = ()

    def file(
        self, store, result: TaskResult, pickled: Optional[bytes] = None
    ) -> TaskResult:
        """Checkpoint a computed result (``pickled``: its payload's pickle,
        when a pool worker shipped one, filed as is); a set-addressed
        task's result is returned merged with its cached sub-payloads, in
        sub-task order."""
        if result.error is not None or result.skipped:
            return result
        task_type = _store_task_type(self.task)
        if self.payloads is None:
            store.put(
                self.fingerprint, result.result, pickled=pickled,
                task_type=task_type, elapsed_s=result.elapsed_s,
            )
            return result
        # Per-sub payloads under per-sub fingerprints, each entry
        # indistinguishable from a solo run's checkpoint. Each is pickled
        # again here, apart from the batch's pickle: this branch goes with
        # BatchSimulationTask (ROADMAP, "One simulation task type").
        elapsed = result.elapsed_s / max(1, len(self.missing))
        merged = list(self.payloads)
        for j, sub_fp, payload in zip(
            self.missing, self.missing_fps, result.result
        ):
            store.put(sub_fp, payload, task_type=task_type, elapsed_s=elapsed)
            merged[j] = payload
        result.result = tuple(merged)
        return result


def _lookup(store, task, memo: dict) -> Union[TaskResult, _Miss]:
    """Serve ``task`` from ``store``: its cached result, or the miss to run.

    A task exposing ``expand_for_store()`` / ``narrow(indices)`` (e.g.
    :class:`~repro.engine.tasks.BatchSimulationTask`) is addressed as the
    *set* of its sub-tasks: each sub-task is fingerprinted individually,
    an all-hit batch is assembled from the per-sub payloads without paying
    a worker, and a partial hit is narrowed to just its missing sub-tasks,
    whose payloads are checkpointed under the *sub-task* fingerprints — so
    warm caches and resume behave identically whether the campaign ran
    batched or solo. Every fingerprint shares the call's ``memo``, so a
    payload shared by sub-tasks (or tasks) is encoded once.
    """
    expand = getattr(task, "expand_for_store", None)
    if expand is None:
        fp = store._fingerprint(task, memo)
        entry = store.get(fp)
        if entry is None:
            return _Miss(task, fingerprint=fp)
        return TaskResult(key=task.key, result=entry.payload, cached=True)
    sub_fps = [store._fingerprint(sub, memo) for sub in expand()]
    entries = [store.get(sub_fp) for sub_fp in sub_fps]
    payloads = [None if e is None else e.payload for e in entries]
    missing = tuple(j for j, e in enumerate(entries) if e is None)
    if not missing:
        return TaskResult(key=task.key, result=tuple(payloads), cached=True)
    return _Miss(
        task.narrow(missing), payloads=payloads, missing=missing,
        missing_fps=tuple(sub_fps[j] for j in missing),
    )


def _store_task_type(task) -> str:
    """The ``task_type`` a result is filed under. An expandable task's
    payloads are stored per sub-task, so they carry the *sub-task's* type —
    the store must not tell batched and solo entries apart."""
    expand = getattr(task, "expand_for_store", None)
    if expand is not None:
        subs = expand()
        if subs:
            return type(subs[0]).__name__
    from repro.engine.faults import unwrap_task

    return type(unwrap_task(task)).__name__
