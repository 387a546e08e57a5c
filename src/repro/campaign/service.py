"""The resident campaign service: a durable job queue over the engine.

One :class:`CampaignService` owns a *spool directory*::

    <root>/
      journal.jsonl   write-ahead job journal (single writer, checksummed)
      store/          shared content-addressed ResultStore (task payloads)
      inbox/          spec files dropped by clients (atomic rename submits)
      rejected/       inbox files that failed validation (+ .error notes)
      results/        one pickle per finished job: the ordered payload list
      control/        client → service requests (cancel-<job> marker files)

and processes submitted campaign specs as **jobs**:

* **bounded queue, explicit backpressure** — at most ``max_queue`` jobs
  may be queued or running; a submission beyond that is journaled as
  ``rejected`` and raises :class:`~repro.errors.BackpressureError` with a
  retry-after estimate derived from observed task throughput. Nothing is
  ever silently dropped.
* **round-robin fairness** — the scheduler interleaves jobs batch by
  batch (``batch_size`` engine tasks per turn), so a three-point smoke
  job finishes promptly even behind a thousand-point sweep.
* **crash-safe by replay** — every state transition hits the journal
  before it takes effect; all task payloads live in the content-addressed
  store. After a SIGKILL, ``CampaignService(root, resume=True)`` replays
  the journal, recompiles each incomplete job from its journaled spec and
  re-runs it through the store — completed tasks are served as hits, so
  the finished job's result file is **bit-identical** to an uninterrupted
  run (asserted by the chaos suite, ``make chaos``).
* **graceful drain** — SIGTERM (or :meth:`request_drain`) finishes the
  in-flight batch, journals a ``checkpoint`` + ``service-stop`` and
  returns; SIGKILL at *any* instant is equivalent to a drain at the last
  journaled transition.

Determinism for chaos testing comes from the :mod:`repro.engine.faults`
service-level sites (``journal-write``, ``service-batch``,
``service-between-jobs``) — armed via environment, they crash the service
at exact, reproducible points.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Mapping, Optional, Union

from repro.campaign.journal import JobJournal, JournalState
from repro.campaign.spec import CampaignSpec, compile_campaign
from repro.engine.executor import resolve_jobs
from repro.engine.faults import maybe_fire
from repro.engine.tasks import BatchSimulationTask
from repro.errors import (
    BackpressureError,
    CampaignError,
    CampaignSpecError,
    EngineError,
    ReproError,
)

#: Pickle protocol pinned for byte-stable result files across runs.
_PICKLE_PROTOCOL = 4

#: Fallback retry-after before any throughput has been observed.
_DEFAULT_RETRY_AFTER_S = 5.0


@dataclass(frozen=True)
class ServicePaths:
    """The spool directory layout (all children of one root)."""

    root: Path

    @property
    def journal(self) -> Path:
        return self.root / "journal.jsonl"

    @property
    def store_dir(self) -> Path:
        return self.root / "store"

    @property
    def inbox(self) -> Path:
        return self.root / "inbox"

    @property
    def rejected(self) -> Path:
        return self.root / "rejected"

    @property
    def results(self) -> Path:
        return self.root / "results"

    @property
    def control(self) -> Path:
        return self.root / "control"

    def make(self) -> "ServicePaths":
        for directory in (
            self.root, self.inbox, self.rejected, self.results, self.control,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        return self


@dataclass
class _Job:
    """In-memory state of one queued/running job."""

    job_id: str
    spec: CampaignSpec
    tasks: Optional[List[object]] = None
    cursor: int = 0
    payloads: List[Any] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.tasks) if self.tasks is not None else 0


class CampaignService:
    """See the module docstring for semantics.

    Args:
        root: Spool directory (created if missing).
        store: An open :class:`~repro.engine.store.ResultStore`; ``None``
            opens one at ``<root>/store`` (the normal arrangement — the
            store is what makes resume bit-identical).
        max_queue: Bound on queued + running jobs; submissions past it get
            :class:`~repro.errors.BackpressureError`.
        batch_size: Engine tasks run per scheduling turn per job — the
            fairness quantum *and* the crash-replay granularity.
        jobs: Engine worker processes per batch (1 = in-process serial).
        resume: Replay the journal and re-enqueue incomplete jobs. Without
            it, a journal holding incomplete jobs refuses to open (a crash
            should be resumed deliberately, not steamrolled). A job whose
            journaled spec is missing or no longer validates is journaled
            ``failed``; the others resume.

    Raises:
        CampaignError: ``max_queue``/``batch_size`` below 1, a ``jobs``
            value :func:`~repro.engine.executor.resolve_jobs` refuses, or
            an incomplete journal without ``resume=True``.
        JournalError: another process owns this journal.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        store=None,
        max_queue: int = 8,
        batch_size: int = 2,
        jobs: int = 1,
        resume: bool = False,
    ) -> None:
        if max_queue < 1:
            raise CampaignError(f"max_queue must be >= 1, got {max_queue}")
        if batch_size < 1:
            raise CampaignError(f"batch_size must be >= 1, got {batch_size}")
        try:
            resolve_jobs(jobs)
        except EngineError as exc:
            raise CampaignError(str(exc)) from exc
        self.paths = ServicePaths(Path(root)).make()
        self.max_queue = max_queue
        self.batch_size = batch_size
        self.jobs = jobs
        if store is None:
            from repro.engine.store import ResultStore

            store = ResultStore(self.paths.store_dir)
        self.store = store
        self.journal = JobJournal(self.paths.journal, writer=True)
        self._queue: Deque[_Job] = deque()
        self._by_id: Dict[str, _Job] = {}
        self._next_job = 1
        self._draining = False
        self._avg_task_s: Optional[float] = None
        self.completed: List[str] = []

        state = self.journal.replay()
        self._next_job = state.next_job_number
        incomplete = state.incomplete
        if incomplete and not resume:
            self.journal.close()
            raise CampaignError(
                f"journal {self.paths.journal} holds "
                f"{len(incomplete)} incomplete job(s) "
                f"({', '.join(j.job_id for j in incomplete)}); "
                "start with resume=True (CLI: serve --resume) to finish "
                "them, or point the service at a fresh directory"
            )
        self.journal.append("service-start", resumed=bool(incomplete))
        for record in incomplete:
            error = None
            if record.spec is None:
                error = "journal lost this job's spec; cannot resume"
            else:
                try:
                    spec = CampaignSpec.from_dict(record.spec)
                except CampaignSpecError as exc:
                    error = f"journaled spec no longer validates: {exc}"
            if error is not None:
                self.journal.append("failed", job=record.job_id, error=error)
                continue
            job = _Job(record.job_id, spec)
            self._by_id[job.job_id] = job
            self._queue.append(job)
            self.journal.append("queued", job=job.job_id, resumed=True)

    # -- client surface ---------------------------------------------------

    def submit(
        self, spec: Union[CampaignSpec, Mapping[str, Any]]
    ) -> str:
        """Queue a campaign; returns its job id.

        Raises:
            CampaignSpecError: invalid spec (all problems listed).
            BackpressureError: the bounded queue is full — journaled as a
                ``rejected`` record; retry after ``exc.retry_after_s``.
        """
        if not isinstance(spec, CampaignSpec):
            spec = CampaignSpec.from_dict(spec)
        depth = len(self._queue)
        if depth >= self.max_queue:
            retry_after = self._retry_after(depth)
            self.journal.append(
                "rejected", name=spec.name, queue_depth=depth,
                max_queue=self.max_queue, retry_after_s=retry_after,
            )
            raise BackpressureError(
                f"queue full ({depth}/{self.max_queue} jobs); retry "
                f"submission of {spec.name!r} in ~{retry_after:.0f}s",
                queue_depth=depth, max_queue=self.max_queue,
                retry_after_s=retry_after,
            )
        job_id = f"job-{self._next_job:04d}"
        self._next_job += 1
        job = _Job(job_id, spec)
        # Write-ahead: the journal knows the job before the queue does.
        self.journal.append(
            "submitted", job=job_id, spec=spec.to_dict(),
            total_tasks=spec.task_count,
        )
        self._by_id[job_id] = job
        self._queue.append(job)
        return job_id

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued/running job; ``True`` if it was active."""
        job = self._by_id.pop(job_id, None)
        if job is None:
            return False
        try:
            self._queue.remove(job)
        except ValueError:
            pass
        self.journal.append(
            "cancelled", job=job_id,
            done_tasks=job.cursor, total_tasks=job.total,
        )
        return True

    def request_drain(self) -> None:
        """Finish the in-flight batch, checkpoint, then stop serving."""
        self._draining = True

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @staticmethod
    def status(root: Union[str, Path]) -> JournalState:
        """Read-only replay of a spool directory's journal (never blocks a
        running service — readers don't take the writer lock)."""
        return JobJournal(ServicePaths(Path(root)).journal, writer=False) \
            .replay()

    # -- scheduling -------------------------------------------------------

    def step(self) -> bool:
        """One scheduling turn: the head job runs one batch, then yields.

        Returns ``True`` if any work was done (``False`` = idle). Fault
        sites ``service-batch`` / ``service-between-jobs`` fire here, which
        is what lets the chaos suite kill the service at exact points.
        """
        self._poll_control()
        if not self._queue:
            return False
        job = self._queue.popleft()
        if job.job_id not in self._by_id:  # cancelled while queued
            return True
        if job.tasks is None:
            self._start(job)
            if job.job_id not in self._by_id:  # compile failed
                return True
        maybe_fire("service-batch")
        batch = job.tasks[job.cursor:job.cursor + self.batch_size]
        started = time.perf_counter()
        try:
            results = self._run_batch(batch)
        except Exception as exc:  # task errors re-raise deterministically
            self._finish(job, "failed", error=str(exc))
            return True
        elapsed = time.perf_counter() - started
        self._observe(elapsed, len(batch))
        job.payloads.extend(r.result for r in results)
        job.cursor += len(batch)
        if job.cursor >= job.total:
            self._finish(job, "done")
            maybe_fire("service-between-jobs")
        else:
            self.journal.append(
                "progress", job=job.job_id,
                done_tasks=job.cursor, total_tasks=job.total,
            )
            self._queue.append(job)  # round-robin: back of the line
        return True

    def run_until_idle(self, *, poll_inbox: bool = True) -> List[str]:
        """Drive the scheduler until queue and inbox are both empty (or a
        drain is requested). Returns the job ids completed this call."""
        completed_before = len(self.completed)
        while not self._draining:
            if poll_inbox:
                self.poll_inbox()
            if not self.step():
                break
        return self.completed[completed_before:]

    def serve_forever(
        self,
        *,
        poll_s: float = 0.2,
        idle_exit_s: Optional[float] = None,
        install_signals: bool = True,
    ) -> None:
        """The resident loop behind ``python -m repro.cli serve``.

        SIGTERM/SIGINT request a graceful drain: the in-flight batch
        completes, a ``checkpoint`` is journaled, the loop returns (the
        CLI then exits 0). ``idle_exit_s`` bounds how long an empty
        service lingers — mainly for tests and one-shot smoke runs.
        """
        previous = {}
        if install_signals:
            def _drain(_signum, _frame):
                self.request_drain()

            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    previous[signum] = signal.signal(signum, _drain)
                except ValueError:  # not the main thread
                    break
        idle_since = time.monotonic()
        try:
            while not self._draining:
                self.poll_inbox()
                if self.step():
                    idle_since = time.monotonic()
                    continue
                if (
                    idle_exit_s is not None
                    and time.monotonic() - idle_since >= idle_exit_s
                ):
                    break
                time.sleep(poll_s)
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self._checkpoint()

    def _checkpoint(self) -> None:
        """Journal a drain checkpoint: where every job stood at stop time.

        Informational only — replay state comes from the per-transition
        records — but it makes a post-mortem `campaign status` read like a
        story instead of a diff.
        """
        for job in list(self._queue):
            self.journal.append(
                "checkpoint", job=job.job_id,
                done_tasks=job.cursor, total_tasks=job.total,
            )
        if not self._queue:
            self.journal.append("checkpoint")
        self.journal.append("service-stop", drained=not self._queue)

    def close(self) -> None:
        self.journal.close()

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- inbox / control --------------------------------------------------

    def poll_inbox(self) -> List[str]:
        """Accept spec files dropped in ``inbox/`` (oldest name first).

        A valid spec becomes a submitted job and the file is consumed; an
        invalid one moves to ``rejected/`` with a ``.error`` note; a
        backpressured one *stays in the inbox* (it will be retried on a
        later poll — the file system is the client's retry queue).
        """
        accepted: List[str] = []
        from repro.campaign.spec import load_campaign_file

        for path in sorted(self.paths.inbox.iterdir()):
            if not path.is_file() or path.name.startswith("."):
                continue
            try:
                spec = load_campaign_file(path)
            except ReproError as exc:
                self._reject_file(path, str(exc))
                continue
            try:
                accepted.append(self.submit(spec))
            except BackpressureError:
                break  # queue full: leave this and later files for retry
            path.unlink(missing_ok=True)
        return accepted

    def _reject_file(self, path: Path, reason: str) -> None:
        target = self.paths.rejected / path.name
        note = target.with_suffix(target.suffix + ".error")
        try:
            note.write_text(reason + "\n")
            os.replace(path, target)
        except OSError:
            path.unlink(missing_ok=True)

    def _poll_control(self) -> None:
        for path in sorted(self.paths.control.glob("cancel-*")):
            job_id = path.name[len("cancel-"):]
            self.cancel(job_id)
            path.unlink(missing_ok=True)

    # -- internals --------------------------------------------------------

    def _start(self, job: _Job) -> None:
        try:
            job.tasks = compile_campaign(job.spec, store=self.store)
        except ReproError as exc:
            self._by_id.pop(job.job_id, None)
            self.journal.append(
                "failed", job=job.job_id,
                error=f"compile failed: {exc}",
            )
            return
        self.journal.append(
            "running", job=job.job_id, total_tasks=job.total,
        )

    def _run_batch(self, batch: List[object]):
        from repro.engine.executor import run_tasks

        return run_tasks(batch, jobs=self.jobs, store=self.store)

    def _finish(self, job: _Job, state: str, *, error: str = "") -> None:
        self._by_id.pop(job.job_id, None)
        fields: Dict[str, Any] = {
            "done_tasks": job.cursor, "total_tasks": job.total,
        }
        if state == "done":
            items = [
                (repr(t.key), _normalised(t, p))
                for t, p in zip(job.tasks, job.payloads)
            ]
            blob = pickle.dumps(items, protocol=_PICKLE_PROTOCOL)
            digest = hashlib.sha256(blob).hexdigest()
            result_path = self.paths.results / f"{job.job_id}.pkl"
            tmp = result_path.with_suffix(".tmp")
            tmp.write_bytes(blob)
            os.replace(tmp, result_path)
            fields["digest"] = digest
            fields["result_path"] = str(result_path)
            self.completed.append(job.job_id)
        else:
            fields["error"] = error
        self.journal.append(state, job=job.job_id, **fields)

    def _observe(self, elapsed_s: float, tasks: int) -> None:
        if tasks <= 0:
            return
        per_task = elapsed_s / tasks
        if self._avg_task_s is None:
            self._avg_task_s = per_task
        else:  # EMA: recent batches dominate (warm store speeds things up)
            self._avg_task_s = 0.7 * self._avg_task_s + 0.3 * per_task

    def _retry_after(self, depth: int) -> float:
        """Rough time until a queue slot frees: one job's remaining work at
        observed throughput, clamped to something a client can sleep on."""
        if self._avg_task_s is None:
            return _DEFAULT_RETRY_AFTER_S
        head = self._queue[0] if self._queue else None
        remaining = (
            (head.total - head.cursor) if head is not None and head.tasks
            else self.batch_size
        )
        estimate = max(1, remaining) * self._avg_task_s
        return min(300.0, max(1.0, estimate))


def _copy(obj: Any) -> Any:
    return pickle.loads(pickle.dumps(obj, protocol=_PICKLE_PROTOCOL))


def _normalised(task: object, payload: Any) -> Any:
    """``payload`` as the store would serve it, for a byte-stable blob.

    Payloads computed in this process can share sub-objects (which the
    joint pickle would encode as memo backreferences) while the same
    payloads served from the store are independent copies. Round-tripping
    each store entry on its own makes the result file byte-identical
    either way, which is the resume bit-identity contract the chaos suite
    asserts. A batched simulation is stored as one entry per replication,
    so each replication is copied on its own.
    """
    if isinstance(task, BatchSimulationTask):
        return tuple(_copy(stats) for stats in payload)
    return _copy(payload)


def submit_file(
    root: Union[str, Path], spec_path: Union[str, Path]
) -> Path:
    """Client-side submit: atomically drop a validated spec in the inbox.

    Validation runs *client-side* first so an invalid spec fails the
    ``campaign submit`` command immediately (with every issue listed)
    instead of landing in ``rejected/`` where nobody is watching.
    """
    from repro.campaign.spec import load_campaign_file

    load_campaign_file(spec_path)  # raises with full issue list if invalid
    paths = ServicePaths(Path(root)).make()
    spec_path = Path(spec_path)
    stamp = f"{os.getpid()}-{time.monotonic_ns()}"
    target = paths.inbox / f"{stamp}-{spec_path.name}"
    tmp = paths.inbox / f".{stamp}-{spec_path.name}.tmp"
    tmp.write_bytes(spec_path.read_bytes())
    os.replace(tmp, target)
    return target


def request_cancel(root: Union[str, Path], job_id: str) -> Path:
    """Client-side cancel: drop a control marker the service consumes."""
    paths = ServicePaths(Path(root)).make()
    marker = paths.control / f"cancel-{job_id}"
    marker.touch()
    return marker
