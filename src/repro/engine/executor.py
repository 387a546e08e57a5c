"""The parallel sweep executor: fan tasks across a supervised process pool.

The architectural sweep of Fig. 3 is embarrassingly parallel — every
(frequency, α, link width, switch-count range) point runs the full
synthesis flow independently — so the executor's job is plumbing, done
carefully:

* **fork-aware worker pool** — on platforms with ``fork`` the workers
  inherit the parent's imported modules and the task's specs via
  copy-on-write, so per-task pickling cost is just the small spec/config
  dataclasses;
* **deterministic merging** — results are returned in *submission order*
  regardless of completion order, and a failing task re-raises its error
  exactly where a serial loop would have (first failure in task order),
  with the worker-side traceback chained on for debuggability;
* **graceful serial fallback** — ``jobs=1``, single-task lists and pool
  creation failures (sandboxed environments without ``/dev/shm``, missing
  ``multiprocessing`` primitives) degrade to the plain in-process loop
  that produces identical results;
* **supervision** (:mod:`repro.engine.supervise`) — one
  ``supervision=Supervision(...)`` value: its ``retry`` applies a
  bounded, deterministic per-task :class:`~repro.engine.supervise
  .RetryPolicy` inside the worker; ``task_timeout_s`` arms a watchdog
  that kills and regenerates a pool stuck past its deadline instead of
  blocking forever; a broken pool (worker OOM-killed, segfaulted) is
  recovered by *attributing* the crasher — each unfinished task re-runs
  alone in a fresh single-worker pool, the one that crashes it again is
  quarantined as a structured :class:`~repro.errors.TaskQuarantinedError`
  result — and restarting the pool (at most ``max_pool_restarts`` times),
  so the rest of the campaign completes. ``on_error`` decides whether
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

``jobs`` resolution: ``None`` or ``0`` → ``$REPRO_ENGINE_JOBS`` if set,
else ``os.cpu_count()``; ``1`` → serial; ``n >= 2`` → pool of ``n``
workers. Negative values raise :class:`~repro.errors.EngineError`.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, Tuple

from repro.engine.supervise import (
    Supervision,
    attach_remote_traceback,
    run_supervised_pool,
)
from repro.engine.tasks import SynthesisTask, TaskResult, run_task
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
    chunk_size: int = 1,
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
        chunk_size: Tasks per worker round-trip; raise above 1 when points
            are so fast that pickling dominates. Crash attribution and
            deadlines are per-chunk, so keep it at 1 when supervision
            precision matters.
        raise_errors: Re-raise the first (in task order) captured error.
            With ``False`` the caller inspects ``TaskResult.error`` itself.
        store: Optional :class:`~repro.engine.store.ResultStore`. Hits are
            served from disk without paying a worker; misses run normally
            and are written to the store *as they complete* (incremental
            checkpointing), errors and pre-skipped tasks excluded. Merged
            results are bit-identical with and without a store.
        supervision: Optional :class:`~repro.engine.supervise.Supervision`
            — retries, per-task deadline, ``on_error`` mode and pool-restart
            budget. ``None`` means no retries, no deadline, supervision
            errors raise.
    """
    if chunk_size < 1:
        raise EngineError(f"chunk_size must be >= 1, got {chunk_size}")
    sup = supervision if supervision is not None else _DEFAULT_SUP
    tasks = list(tasks)
    workers = resolve_jobs(jobs)
    if store is not None:
        return _run_with_store(
            tasks, store, workers, progress, chunk_size, raise_errors, sup
        )
    if workers <= 1 or len(tasks) <= 1:
        return _run_serial(tasks, progress, raise_errors, sup=sup)

    results = _run_parallel(tasks, workers, progress, chunk_size, sup=sup)
    if results is None:  # pool could not be created at all
        return _run_serial(tasks, progress, raise_errors, sup=sup)
    if raise_errors:
        _raise_first(results, sup)
    return results


# --------------------------------------------------------------------------
# internals
# --------------------------------------------------------------------------

#: Completion hook fired in the parent per finished task (store writes).
_OnResultFn = Callable[[TaskResult], None]


def _run_serial(
    tasks: Sequence[SynthesisTask],
    progress: Optional[ProgressFn],
    raise_errors: bool,
    on_result: Optional[_OnResultFn] = None,
    sup: Supervision = _DEFAULT_SUP,
) -> List[TaskResult]:
    results: List[TaskResult] = []
    total = len(tasks)
    for i, task in enumerate(tasks):
        result = run_task(task, sup.retry)
        # The completion hook runs before a failure is re-raised, so every
        # point finished *before* the failing one is already checkpointed.
        if on_result is not None:
            on_result(result)
        if (
            raise_errors
            and result.error is not None
            and sup.should_raise(result.error)
        ):
            raise result.error
        results.append(result)
        if progress is not None:
            progress(i + 1, total, task.key)
    return results


def _run_parallel(
    tasks: List[SynthesisTask],
    workers: int,
    progress: Optional[ProgressFn],
    chunk_size: int,
    on_result: Optional[_OnResultFn] = None,
    sup: Supervision = _DEFAULT_SUP,
) -> Optional[List[TaskResult]]:
    """Fan out over a supervised pool; None signals 'fall back to serial'."""
    total = len(tasks)
    done = 0

    def note(chunk_results: List[TaskResult]) -> None:
        nonlocal done
        # Checkpoint first: a progress callback may raise (deliberately, to
        # abort a campaign) and the finished work must already be on disk.
        if on_result is not None:
            for result in chunk_results:
                on_result(result)
        if progress is not None:
            for result in chunk_results:
                done += 1
                progress(done, total, result.key)
        else:
            done += len(chunk_results)

    return run_supervised_pool(tasks, workers, chunk_size, sup, note)


def _raise_first(
    results: Sequence[TaskResult], sup: Supervision = _DEFAULT_SUP
) -> None:
    for result in results:
        error = result.error
        if error is None:
            continue
        if not sup.should_raise(error):
            continue
        raise attach_remote_traceback(error, result.traceback)


def _run_with_store(
    tasks: List[SynthesisTask],
    store,
    workers: int,
    progress: Optional[ProgressFn],
    chunk_size: int,
    raise_errors: bool,
    sup: Supervision = _DEFAULT_SUP,
) -> List[TaskResult]:
    """Serve hits from the store, compute misses, checkpoint incrementally.

    Hits report progress first (in submission order), then misses as they
    complete; the merged result list is in submission order either way, and
    bit-identical to a run without a store.

    A task exposing ``expand_for_store()`` / ``narrow(indices)`` (e.g.
    :class:`~repro.engine.tasks.BatchSimulationTask`) is addressed as the
    *set* of its sub-tasks: each sub-task is fingerprinted individually,
    an all-hit batch is assembled from the per-sub payloads without paying
    a worker, a partial hit is narrowed to just its missing sub-tasks, and
    computed sub-payloads are checkpointed under the *sub-task*
    fingerprints — so warm caches and resume behave identically whether
    the campaign ran batched or solo.
    """
    total = len(tasks)
    slots: List[Optional[TaskResult]] = [None] * total
    fingerprints: List[Optional[object]] = [None] * total
    misses: List[Tuple[int, SynthesisTask]] = []
    # Partially-hit expandable tasks: per-sub payloads (None = miss) plus
    # the missing sub-indices, merged with the narrowed computation below.
    partials: dict = {}
    for i, task in enumerate(tasks):
        expand = getattr(task, "expand_for_store", None)
        if expand is not None:
            sub_fps = [store.fingerprint(sub) for sub in expand()]
            payloads: List[Optional[object]] = []
            missing: List[int] = []
            for j, sub_fp in enumerate(sub_fps):
                entry = store.get(sub_fp)
                if entry is None:
                    payloads.append(None)
                    missing.append(j)
                else:
                    payloads.append(entry.payload)
            if missing:
                misses.append((i, task.narrow(tuple(missing))))
                fingerprints[i] = [sub_fps[j] for j in missing]
                partials[i] = (payloads, missing)
            else:
                slots[i] = TaskResult(key=task.key, result=tuple(payloads),
                                      cached=True)
            continue
        fp = store.fingerprint(task)
        fingerprints[i] = fp
        entry = store.get(fp)
        if entry is not None:
            slots[i] = TaskResult(key=task.key, result=entry.payload,
                                  cached=True)
        else:
            misses.append((i, task))

    done = 0
    for i, cached in enumerate(slots):
        if cached is not None:
            done += 1
            if progress is not None:
                progress(done, total, tasks[i].key)

    if misses:
        base_done = done

        def miss_progress(miss_done: int, _miss_total: int, key) -> None:
            # Miss keys arrive wrapped as (miss_index, original_key) — see
            # _run_store_misses — and are unwrapped before the user sees them.
            if progress is not None:
                progress(base_done + miss_done, total, key[1])

        computed = _run_store_misses(
            misses, fingerprints, workers,
            miss_progress if progress else None, chunk_size, raise_errors,
            store, sup,
        )
        for (i, _task), result in zip(misses, computed):
            if i in partials and result.error is None and not result.skipped:
                # Seed-order merge: cached sub-payloads keep their slots,
                # the narrowed computation fills the gaps.
                payloads, missing = partials[i]
                merged = list(payloads)
                for j, payload in zip(missing, result.result):
                    merged[j] = payload
                result.result = tuple(merged)
            slots[i] = result

    results = [r for r in slots if r is not None]
    if raise_errors:
        _raise_first(results, sup)
    return results


def _run_store_misses(
    misses: List[Tuple[int, SynthesisTask]],
    fingerprints: List[Optional[str]],
    workers: int,
    progress: Optional[ProgressFn],
    chunk_size: int,
    raise_errors: bool,
    store,
    sup: Supervision = _DEFAULT_SUP,
) -> List[TaskResult]:
    """Compute the store misses, writing each result as it completes.

    Caller-chosen ``key``\\ s need not be unique, and parallel chunks
    complete out of order, so each miss is tracked by temporarily wrapping
    its key as ``(miss_index, key)``; the wrapper is stripped from results
    and progress callbacks before anything reaches the caller.
    """
    import dataclasses

    indexed = [
        dataclasses.replace(task, key=(idx, task.key))
        for idx, (_i, task) in enumerate(misses)
    ]
    fp_by_idx = [fingerprints[i] for i, _task in misses]
    type_by_idx = [_store_task_type(task) for _i, task in misses]

    def checkpoint(result: TaskResult) -> None:
        if result.error is not None or result.skipped:
            return
        idx, _original_key = result.key
        fp = fp_by_idx[idx]
        if isinstance(fp, list):
            # Expandable task: per-sub payloads under per-sub fingerprints,
            # each entry indistinguishable from a solo run's checkpoint.
            elapsed = result.elapsed_s / max(1, len(fp))
            for sub_fp, payload in zip(fp, result.result):
                store.put(
                    sub_fp, payload,
                    task_type=type_by_idx[idx], elapsed_s=elapsed,
                )
            return
        store.put(
            fp, result.result,
            task_type=type_by_idx[idx], elapsed_s=result.elapsed_s,
        )

    if workers <= 1 or len(indexed) <= 1:
        results = _run_serial(
            indexed, progress, raise_errors, checkpoint, sup
        )
    else:
        results = _run_parallel(
            indexed, workers, progress, chunk_size, checkpoint, sup
        )
        if results is None:
            results = _run_serial(
                indexed, progress, raise_errors, checkpoint, sup
            )
    for result in results:
        result.key = result.key[1]
    return results


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
