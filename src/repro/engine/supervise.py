"""Supervised pool execution: retries, deadlines and poison-task quarantine.

The executor's historical recovery story — on ``BrokenProcessPool`` re-run
every missing chunk in the *main* process — is exactly wrong for the
campaign service the roadmap is heading towards: a task that OOM-kills or
segfaults a worker would be re-executed where it can kill the whole
campaign, and a hung worker would be waited on forever. This module
replaces it with a supervision layer:

* :class:`Supervision` — the one value a caller passes
  (``run_tasks(..., supervision=Supervision(...))``), one field per CLI
  flag: ``retries``, ``task_timeout_s`` and ``on_error``. It validates
  itself on construction.
* **retries** — a failed task re-runs at once, *inside* the worker (so a
  transient failure never pays a pool round-trip), up to ``retries`` extra
  times (:func:`repro.engine.tasks.run_task`). Supervision errors are never
  retried.
* **per-task deadlines** — ``Supervision(task_timeout_s=...)`` arms a
  watchdog: each in-flight task carries a deadline of ``task_timeout_s``
  from submission; when it expires the pool is killed (a
  ``ProcessPoolExecutor`` cannot cancel running work), the expired tasks
  are filed as :class:`~repro.errors.TaskTimeoutError` results, innocent
  in-flight tasks are requeued, and a fresh pool continues the campaign.
  Deadlines need a pool — the serial path (``jobs=1``) runs tasks in the
  caller's process and cannot preempt them. Timed-out tasks are *not*
  retried: a deadline expiry is a budget decision, not a transient fault.
* **poison-task quarantine** — when the pool breaks, each unfinished
  in-flight task is re-run alone in a fresh single-worker pool to
  *attribute* the crasher. A task that kills its private pool too is
  quarantined as a structured :class:`~repro.errors.TaskQuarantinedError`
  result; innocent bystanders keep their solo result. The main pool is
  then regenerated — at most :data:`MAX_POOL_RESTARTS` times per campaign
  — and the rest of the campaign completes.

Nothing here raises supervision errors directly: they are *returned* as
``TaskResult.error`` and ``Supervision.on_error`` decides whether
they surface as exceptions (``"raise"``, the default) or as inspectable
quarantined rows (``"quarantine"``).
"""

from __future__ import annotations

import time as _time
from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.engine.tasks import TaskResult, run_task_pickled
from repro.errors import (
    EngineError,
    SupervisionError,
    TaskQuarantinedError,
    TaskTimeoutError,
)

#: Completion hook: the executor's merge/progress/checkpoint callback,
#: fired in the parent once per finished task (in completion order) with
#: the task's index in the submitted list. A result that ran in a worker
#: arrives as :func:`~repro.engine.tasks.run_task_pickled` shipped it:
#: ``result`` holds the pickled bytes.
NoteFn = Callable[[int, TaskResult], None]

#: Pool regenerations (crash or timeout recovery) allowed per call before
#: the remaining tasks are quarantined as budget-exhausted.
MAX_POOL_RESTARTS = 3

_ON_ERROR_MODES = ("raise", "quarantine")


@dataclass(frozen=True)
class Supervision:
    """How one ``run_tasks(..., supervision=)`` call survives bad tasks.

    Attributes:
        retries: Extra attempts after a failed first one (0 disables
            retrying). A retry runs at once, in the worker; supervision
            errors (timeouts, quarantines) are never retried.
        task_timeout_s: Per-task deadline (parallel runs only — the serial
            path cannot preempt a task in its own process). A task still in
            flight ``task_timeout_s`` after submission has its pool killed
            and regenerated and becomes a
            :class:`~repro.errors.TaskTimeoutError` result.
        on_error: ``"raise"`` (default) lets supervision errors (timeouts,
            quarantines) surface through the ``raise_errors`` gate like any
            task error; ``"quarantine"`` keeps them as structured
            ``TaskResult.error`` rows so the campaign completes and the
            caller inspects the casualties.

    Validated on construction, so a bad value fails before any work runs.
    """

    retries: int = 0
    task_timeout_s: Optional[float] = None
    on_error: str = "raise"

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise EngineError(f"retries must be >= 0, got {self.retries}")
        if self.on_error not in _ON_ERROR_MODES:
            raise EngineError(
                f"on_error must be one of {_ON_ERROR_MODES}, "
                f"got {self.on_error!r}"
            )
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise EngineError(
                f"task_timeout_s must be positive, got {self.task_timeout_s}"
            )

    def should_raise(self, error: BaseException) -> bool:
        """Whether the ``raise_errors`` gate applies to ``error``: under
        ``on_error="quarantine"`` supervision errors stay in the results."""
        if self.on_error == "quarantine" and isinstance(
            error, SupervisionError
        ):
            return False
        return True


class _RemoteTraceback(Exception):
    """Carrier for a worker-side formatted traceback, chained as the
    ``__cause__`` of a re-raised remote error so the original raise site
    shows up in the parent's traceback."""

    def __init__(self, text: str) -> None:
        super().__init__(text)
        self.text = text

    def __str__(self) -> str:
        return self.text


def attach_remote_traceback(error: BaseException, text: Optional[str]):
    """Chain the worker-side traceback onto an unpickled error, once.

    Only errors that actually crossed the pickle boundary (their
    ``__traceback__`` was stripped) are annotated; locally raised errors
    keep their live traceback untouched.
    """
    if text and error.__traceback__ is None and error.__cause__ is None:
        error.__cause__ = _RemoteTraceback(f"\n{text}")
    return error


def pool_context():
    """A fork multiprocessing context when available (cheap workers), else
    the platform default."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def new_pool(max_workers: int):
    """A process pool whose workers start with :func:`gc.freeze`: what a
    fork worker inherits is then left out of its collections, which scan
    only what its tasks allocate (a full one would walk, and copy, the
    parent's whole heap)."""
    import gc
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=max_workers, mp_context=pool_context(),
        initializer=gc.freeze,
    )


def _hard_stop(pool) -> None:
    """Terminate a pool without waiting on possibly-hung workers."""
    procs = list((getattr(pool, "_processes", None) or {}).values())
    for proc in procs:
        try:
            proc.kill()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in procs:
        try:
            proc.join(timeout=1.0)
        except Exception:
            pass


def _timeout_result(task, timeout_s: float) -> TaskResult:
    error = TaskTimeoutError(
        f"task {task.key!r} exceeded its {timeout_s:g}s deadline; "
        "the worker pool was regenerated",
        key=task.key, timeout_s=timeout_s,
    )
    return TaskResult(key=task.key, error=error, elapsed_s=timeout_s)


def _quarantined_result(task, *, attempts: int, reason: str) -> TaskResult:
    error = TaskQuarantinedError(
        f"task {task.key!r} quarantined ({reason}) after "
        f"{attempts} attempt{'s' if attempts != 1 else ''}",
        key=task.key, attempts=attempts, reason=reason,
    )
    return TaskResult(key=task.key, error=error, attempts=attempts)


def _solo_run(task, retries, timeout_s) -> TaskResult:
    """Attribution run: execute one crash suspect in its own single-worker
    pool. A crash there convicts the task (quarantine); a normal result or
    captured error acquits it and *is* its final result — the task is not
    run a third time."""
    from concurrent.futures.process import BrokenProcessPool

    try:
        pool = new_pool(1)
    except (OSError, PermissionError):
        # No isolation available: never re-run a crash suspect in the
        # parent process — quarantine it outright.
        return _quarantined_result(
            task, attempts=1, reason="crash (no isolation available)"
        )
    try:
        future = pool.submit(run_task_pickled, task, retries)
        try:
            result = future.result(timeout=timeout_s)
        except BrokenProcessPool:
            return _quarantined_result(task, attempts=2, reason="crash")
        except TimeoutError:
            return _timeout_result(task, timeout_s)
        result.attempts += 1  # count the crashed pool attempt
        return result
    finally:
        _hard_stop(pool)


def run_supervised_pool(
    tasks: Sequence,
    workers: int,
    sup: Supervision,
    note: NoteFn,
) -> bool:
    """Fan tasks over a supervised process pool, one task per future.

    ``note(index, result)`` fires in the parent once per task, in
    *completion* order (checkpointing + progress); it may raise to abort
    the campaign, and any ``BaseException`` — including a
    ``KeyboardInterrupt`` — hard-stops the pool before propagating, so an
    interrupt never leaves a hung pool or a half-written checkpoint behind.

    Returns ``False`` only when no pool could be created at all (nothing
    has run, so the caller may fall back to the serial path); mid-campaign
    failures never fall back, which would re-run already-completed tasks.
    """
    try:
        from concurrent.futures import FIRST_COMPLETED
        from concurrent.futures import wait as futures_wait
        from concurrent.futures.process import BrokenProcessPool
    except ImportError:
        return False

    pending = deque(range(len(tasks)))
    inflight: dict = {}  # future -> (task index, deadline | None)
    restarts_left = MAX_POOL_RESTARTS
    max_workers = min(workers, len(tasks))

    def fill(pool) -> None:
        # Cap in-flight submissions at the worker count so a submitted
        # task starts (almost) immediately — its submission-time deadline
        # then approximates a start-time deadline.
        while pending and len(inflight) < max_workers:
            idx = pending[0]
            deadline = None
            if sup.task_timeout_s is not None:
                deadline = _time.monotonic() + sup.task_timeout_s
            # A worker may have died since the last harvest, and submit
            # then raises BrokenProcessPool: the task stays pending for
            # the regenerated pool.
            future = pool.submit(run_task_pickled, tasks[idx], sup.retries)
            pending.popleft()
            inflight[future] = (idx, deadline)

    def drain_broken() -> List[int]:
        """Harvest completed in-flight futures of a broken pool; return the
        unfinished task indices (the crash suspects) in submission order."""
        suspects: List[int] = []
        for future, (idx, _deadline) in sorted(
            inflight.items(), key=lambda item: item[1][0]
        ):
            try:
                result = future.result(timeout=0)
            except Exception:
                suspects.append(idx)
            else:
                note(idx, result)
        inflight.clear()
        return suspects

    def regenerate():
        """A fresh pool for the pending tasks, or ``None`` when there is
        nothing left to run or no pool to be had (everything still pending
        is then quarantined)."""
        nonlocal restarts_left
        if not pending:
            return None
        reason = "pool restart budget exhausted"
        if restarts_left > 0:
            restarts_left -= 1
            try:
                return new_pool(max_workers)
            except (OSError, PermissionError):
                reason = "pool regeneration failed"
        while pending:
            idx = pending.popleft()
            note(idx, _quarantined_result(tasks[idx], attempts=0,
                                          reason=reason))
        return None

    try:
        pool = new_pool(max_workers)
    except (OSError, PermissionError):
        return False

    try:
        while pool is not None and (pending or inflight):
            try:
                fill(pool)
                timeout = None
                if sup.task_timeout_s is not None:
                    earliest = min(
                        deadline for _i, deadline in inflight.values()
                    )
                    timeout = max(0.0, earliest - _time.monotonic())
                done, _not_done = futures_wait(
                    set(inflight), timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )
                if done:
                    for future in done:
                        idx, _deadline = inflight[future]
                        result = future.result()  # may raise Broken
                        del inflight[future]
                        note(idx, result)
                    continue
                # --- deadline expiry ------------------------------------
                now = _time.monotonic()
                expired = sorted(
                    idx for _f, (idx, deadline) in inflight.items()
                    if deadline <= now
                )
                if not expired:
                    continue  # spurious wakeup; recompute the timeout
                # Running work cannot be cancelled: kill the pool, file the
                # expired tasks as timeouts, requeue the innocents.
                innocents = sorted(
                    idx for _f, (idx, deadline) in inflight.items()
                    if deadline > now
                )
                inflight.clear()
                _hard_stop(pool)
                for idx in expired:
                    note(idx, _timeout_result(tasks[idx], sup.task_timeout_s))
                for idx in reversed(innocents):
                    pending.appendleft(idx)
                pool = regenerate()
            except BrokenProcessPool:
                # A worker died (OOM kill, segfault, hard exit). Attribute
                # the crasher: every unfinished in-flight task re-runs
                # alone in a fresh single-worker pool.
                suspects = drain_broken()
                _hard_stop(pool)
                for idx in suspects:
                    note(idx, _solo_run(
                        tasks[idx], sup.retries, sup.task_timeout_s
                    ))
                pool = regenerate()
    except BaseException:
        # Includes KeyboardInterrupt and deliberate aborts raised by the
        # note() callback: kill the pool *now* so the process can exit
        # promptly — completed checkpoints are already on disk.
        if pool is not None:
            _hard_stop(pool)
        raise
    if pool is not None:
        pool.shutdown(wait=True)
    return True
