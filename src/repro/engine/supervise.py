"""Supervised pool execution: retries, deadlines and poison-task quarantine.

The executor's historical recovery story — on ``BrokenProcessPool`` re-run
every missing chunk in the *main* process — is exactly wrong for the
campaign service the roadmap is heading towards: a task that OOM-kills or
segfaults a worker would be re-executed where it can kill the whole
campaign, and a hung worker would be waited on forever. This module
replaces it with a supervision layer:

* :class:`RetryPolicy` — bounded per-task retries with deterministic
  backoff and an injectable ``sleep`` (tests pass a recorder; campaigns
  get real waits). Applied *inside* the worker, so a transient failure
  never pays a pool round-trip.
* :class:`Supervision` — the one value a caller passes
  (``run_tasks(..., supervision=Supervision(...))``), bundling the retry
  policy, deadline, error mode and pool-restart budget below; it validates
  itself on construction.
* **per-task deadlines** — ``Supervision(task_timeout_s=...)`` arms a
  watchdog: in-flight chunks carry a deadline of ``task_timeout_s ×
  len(chunk)`` from submission; when it expires the pool is killed (a
  ``ProcessPoolExecutor`` cannot cancel running work), the expired tasks
  are filed as :class:`~repro.errors.TaskTimeoutError` results, innocent
  in-flight chunks are requeued, and a fresh pool continues the campaign.
  Deadlines need a pool — the serial path (``jobs=1``) runs tasks in the
  caller's process and cannot preempt them. Timed-out tasks are *not*
  retried: a deadline expiry is a budget decision, not a transient fault.
* **poison-task quarantine** — when the pool breaks, each unfinished
  in-flight task is re-run alone in a fresh single-worker pool to
  *attribute* the crasher. A task that kills its private pool too is
  quarantined as a structured :class:`~repro.errors.TaskQuarantinedError`
  result; innocent bystanders keep their solo result. The main pool is
  then regenerated — at most ``max_pool_restarts`` times per campaign —
  and the rest of the campaign completes.

Nothing here raises supervision errors directly: they are *returned* as
``TaskResult.error`` and ``Supervision.on_error`` decides whether
they surface as exceptions (``"raise"``, the default) or as inspectable
quarantined rows (``"quarantine"``).
"""

from __future__ import annotations

import time as _time
from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Type

from repro.engine.tasks import TaskResult, run_chunk
from repro.errors import (
    EngineError,
    SupervisionError,
    TaskQuarantinedError,
    TaskTimeoutError,
)

#: Completion hook: the executor's merge/progress/checkpoint callback,
#: fired in the parent once per finished chunk (in completion order).
NoteFn = Callable[[List[TaskResult]], None]

_ON_ERROR_MODES = ("raise", "quarantine")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded per-task retries with deterministic exponential backoff.

    Attributes:
        max_retries: Extra attempts after the first (0 disables retrying).
        backoff_s: Delay before the first retry; 0 retries immediately.
        backoff_factor: Multiplier applied per further retry.
        max_backoff_s: Ceiling on any single delay.
        retry_on: Exception classes worth retrying. Defaults to every
            ``Exception``; narrow it to e.g. transient I/O classes when
            task errors are usually deterministic.
        sleep: Injectable wait function (must be picklable — a module-level
            function — to cross the worker boundary). ``None`` uses
            ``time.sleep``.

    The schedule is a pure function of the attempt number — no jitter —
    so a retried campaign is exactly reproducible.
    """

    max_retries: int = 2
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    max_backoff_s: float = 30.0
    retry_on: Tuple[Type[BaseException], ...] = (Exception,)
    sleep: Optional[Callable[[float], None]] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise EngineError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_s < 0:
            raise EngineError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_factor < 1.0:
            raise EngineError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_backoff_s < 0:
            raise EngineError(
                f"max_backoff_s must be >= 0, got {self.max_backoff_s}"
            )

    def delay_s(self, retry_number: int) -> float:
        """Deterministic delay before retry ``retry_number`` (1-based)."""
        if self.backoff_s <= 0:
            return 0.0
        delay = self.backoff_s * self.backoff_factor ** (retry_number - 1)
        return min(delay, self.max_backoff_s)

    def should_retry(self, error: BaseException) -> bool:
        """Whether ``error`` is worth another attempt (class check only;
        the attempt budget is the caller's loop)."""
        if isinstance(error, SupervisionError):
            return False
        return isinstance(error, self.retry_on)

    def wait(self, retry_number: int) -> None:
        """Sleep out the backoff before retry ``retry_number``."""
        delay = self.delay_s(retry_number)
        if delay > 0:
            (self.sleep or _time.sleep)(delay)


@dataclass(frozen=True)
class Supervision:
    """How one ``run_tasks(..., supervision=)`` call survives bad tasks.

    Attributes:
        retry: Optional :class:`RetryPolicy` — failed attempts matching the
            policy re-run (in the worker, deterministic backoff) before the
            error is recorded.
        task_timeout_s: Per-task deadline (parallel runs only — the serial
            path cannot preempt a task in its own process). An in-flight
            chunk past ``task_timeout_s * len(chunk)`` has its pool killed
            and regenerated; its tasks become
            :class:`~repro.errors.TaskTimeoutError` results. Timed-out tasks
            are not retried.
        on_error: ``"raise"`` (default) lets supervision errors (timeouts,
            quarantines) surface through the ``raise_errors`` gate like any
            task error; ``"quarantine"`` keeps them as structured
            ``TaskResult.error`` rows so the campaign completes and the
            caller inspects the casualties.
        max_pool_restarts: Pool regenerations (crash or timeout recovery)
            allowed per call before remaining tasks are quarantined as
            budget-exhausted.

    Validated on construction, so a bad value fails before any work runs.
    """

    retry: Optional[RetryPolicy] = None
    task_timeout_s: Optional[float] = None
    on_error: str = "raise"
    max_pool_restarts: int = 3

    def __post_init__(self) -> None:
        if self.on_error not in _ON_ERROR_MODES:
            raise EngineError(
                f"on_error must be one of {_ON_ERROR_MODES}, "
                f"got {self.on_error!r}"
            )
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise EngineError(
                f"task_timeout_s must be positive, got {self.task_timeout_s}"
            )
        if self.max_pool_restarts < 0:
            raise EngineError(
                f"max_pool_restarts must be >= 0, "
                f"got {self.max_pool_restarts}"
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


def _solo_run(task, retry, timeout_s, pool_cls) -> TaskResult:
    """Attribution run: execute one crash suspect in its own single-worker
    pool. A crash there convicts the task (quarantine); a normal result or
    captured error acquits it and *is* its final result — the task is not
    run a third time."""
    from concurrent.futures.process import BrokenProcessPool

    try:
        pool = pool_cls(max_workers=1, mp_context=pool_context())
    except (OSError, PermissionError):
        # No isolation available: never re-run a crash suspect in the
        # parent process — quarantine it outright.
        return _quarantined_result(
            task, attempts=1, reason="crash (no isolation available)"
        )
    try:
        future = pool.submit(run_chunk, [task], retry)
        try:
            results = future.result(timeout=timeout_s)
        except BrokenProcessPool:
            return _quarantined_result(task, attempts=2, reason="crash")
        except TimeoutError:
            return _timeout_result(task, timeout_s)
        result = results[0]
        result.attempts += 1  # count the crashed pool attempt
        return result
    finally:
        _hard_stop(pool)


def run_supervised_pool(
    tasks: Sequence,
    workers: int,
    chunk_size: int,
    sup: Supervision,
    note: NoteFn,
) -> Optional[List[TaskResult]]:
    """Fan tasks over a supervised process pool; ``None`` = fall back serial.

    Results come back in submission order. ``note`` fires in the parent per
    finished chunk in *completion* order (checkpointing + progress); it may
    raise to abort the campaign, and any ``BaseException`` — including a
    ``KeyboardInterrupt`` — hard-stops the pool before propagating, so an
    interrupt never leaves a hung pool or a half-written checkpoint behind.

    ``None`` is returned only when no pool could be created at all (nothing
    has run); mid-campaign failures never fall back to the serial path,
    which would re-run already-completed tasks.
    """
    try:
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
        from concurrent.futures import wait as futures_wait
        from concurrent.futures.process import BrokenProcessPool
    except ImportError:
        return None

    chunks = [
        list(tasks[i:i + chunk_size])
        for i in range(0, len(tasks), chunk_size)
    ]
    slots: List[Optional[List[TaskResult]]] = [None] * len(chunks)
    pending = deque(range(len(chunks)))
    inflight: dict = {}  # future -> (chunk_idx, deadline | None)
    restarts_left = sup.max_pool_restarts
    max_workers = min(workers, len(chunks))

    def make_pool():
        return ProcessPoolExecutor(
            max_workers=max_workers, mp_context=pool_context()
        )

    def chunk_deadline(idx: int) -> Optional[float]:
        if sup.task_timeout_s is None:
            return None
        return _time.monotonic() + sup.task_timeout_s * len(chunks[idx])

    def fill(pool) -> None:
        # Cap in-flight submissions at the worker count so a submitted
        # chunk starts (almost) immediately — its submission-time deadline
        # then approximates a start-time deadline.
        while pending and len(inflight) < max_workers:
            idx = pending.popleft()
            future = pool.submit(run_chunk, chunks[idx], sup.retry)
            inflight[future] = (idx, chunk_deadline(idx))

    def drain_broken() -> List[int]:
        """Harvest completed in-flight futures of a broken pool; return the
        unfinished chunk indices (the crash suspects) in submission order."""
        suspects: List[int] = []
        for future, (idx, _deadline) in sorted(
            inflight.items(), key=lambda item: item[1][0]
        ):
            try:
                chunk_results = future.result(timeout=0)
            except BaseException:
                suspects.append(idx)
            else:
                slots[idx] = chunk_results
                note(chunk_results)
        inflight.clear()
        return suspects

    def exhaust_budget(reason: str) -> None:
        """No pool left: quarantine everything still pending."""
        while pending:
            idx = pending.popleft()
            results = [
                _quarantined_result(task, attempts=0, reason=reason)
                for task in chunks[idx]
            ]
            slots[idx] = results
            note(results)

    try:
        pool = make_pool()
    except (OSError, PermissionError):
        return None

    try:
        while pending or inflight:
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
                        chunk_results = future.result()  # may raise Broken
                        del inflight[future]
                        slots[idx] = chunk_results
                        note(chunk_results)
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
                # expired chunks as timeouts, requeue the innocents.
                innocents = sorted(
                    idx for _f, (idx, deadline) in inflight.items()
                    if deadline > now
                )
                inflight.clear()
                _hard_stop(pool)
                for idx in expired:
                    results = [
                        _timeout_result(task, sup.task_timeout_s)
                        for task in chunks[idx]
                    ]
                    slots[idx] = results
                    note(results)
                for idx in reversed(innocents):
                    pending.appendleft(idx)
                if not pending:
                    break
                if restarts_left <= 0:
                    exhaust_budget("pool restart budget exhausted")
                    break
                restarts_left -= 1
                try:
                    pool = make_pool()
                except (OSError, PermissionError):
                    exhaust_budget("pool regeneration failed")
                    break
            except BrokenProcessPool:
                # A worker died (OOM kill, segfault, hard exit). Attribute
                # the crasher: every unfinished in-flight task re-runs
                # alone in a fresh single-worker pool.
                suspects = drain_broken()
                _hard_stop(pool)
                for idx in suspects:
                    results = [
                        _solo_run(
                            task, sup.retry, sup.task_timeout_s,
                            ProcessPoolExecutor,
                        )
                        for task in chunks[idx]
                    ]
                    slots[idx] = results
                    note(results)
                if not pending:
                    break
                if restarts_left <= 0:
                    exhaust_budget("pool restart budget exhausted")
                    break
                restarts_left -= 1
                try:
                    pool = make_pool()
                except (OSError, PermissionError):
                    exhaust_budget("pool regeneration failed")
                    break
    except BaseException:
        # Includes KeyboardInterrupt and deliberate aborts raised by the
        # note() callback: kill the pool *now* so the process can exit
        # promptly — completed checkpoints are already on disk.
        _hard_stop(pool)
        raise
    else:
        pool.shutdown(wait=True)

    merged: List[TaskResult] = []
    for chunk_results in slots:
        assert chunk_results is not None
        merged.extend(chunk_results)
    return merged
