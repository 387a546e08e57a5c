"""Inter-process file locking for shared on-disk state.

The result store (PR 5) and the campaign service share one directory tree
across *processes*: serving workers, ad-hoc CLI campaigns and a resident
``cli serve`` loop may all mutate the same store concurrently. Atomic
``os.replace`` writes already make individual entries safe; what needs a
lock is the *multi-file* mutations — ``clear`` and repair sweeps walking
and unlinking entries while another process writes, journal ownership.

:class:`FileLock` wraps ``fcntl.flock`` (the POSIX advisory lock):

* **crash-safe by construction** — the kernel releases the lock when the
  holding process dies, however it dies (SIGKILL included), so a process
  killed mid-sweep can never deadlock the store; the next locker simply
  proceeds over the partially-swept (but entry-wise consistent) tree;
* **bounded waits** — ``acquire`` polls with a deadline and raises a
  structured :class:`~repro.errors.LockTimeoutError` instead of blocking a
  campaign forever behind a stuck peer; callers that prefer to skip the
  protected work pass ``timeout_s=0`` and branch on the ``False`` return;
* **degrades to a no-op** where ``fcntl`` does not exist (non-POSIX
  platforms): single-process behaviour is unchanged and the store stays
  usable, just without cross-process exclusion.

Locks are *advisory*: every writer of the shared tree must go through the
same lock path. Within this repo those writers are
:meth:`repro.engine.store.ResultStore.clear` / ``verify(repair=True)``
and the campaign journal's single-writer guard.

Because advisory locks only work if every call site cooperates, the
discipline itself is lint-enforced (``make lint``, checker
``lock-discipline``, code RPL401). Three zero-runtime-cost markers
declare each function's role in the protocol:

* :func:`requires_lock` — the function **assumes** the named lock is held
  by its caller (the ``_locked`` internals);
* :func:`acquires_lock` — calling the function takes, or returns a holder
  of, the named lock (``ResultStore._mutation_lock``);
* :func:`asserts_lock` — the function verifies ownership and raises when
  it is absent (``JobJournal._require_writer``).

The linter then proves every call to a ``requires_lock`` function happens
in a context that holds the lock. The markers attach attributes and
return the function unchanged — no wrapper frame, no runtime dependency
on the analysis package.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Optional, Union

from repro.errors import LockTimeoutError

try:  # POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

#: How often a blocked ``acquire`` re-tries the non-blocking flock.
_POLL_S = 0.01


def requires_lock(name: str):
    """Mark a function as assuming the named lock is already held.

    The ``lock-discipline`` checker (RPL401) proves every call site of a
    function carrying this marker holds ``name`` — by being marked
    itself, by a lexically-earlier call to an :func:`acquires_lock` /
    :func:`asserts_lock` function, or by a ``with FileLock(...)``.
    """

    def mark(fn):
        fn.__requires_lock__ = name
        return fn

    return mark


def acquires_lock(name: str):
    """Mark a function as taking (or returning a holder of) the lock."""

    def mark(fn):
        fn.__acquires_lock__ = name
        return fn

    return mark


def asserts_lock(name: str):
    """Mark a function as verifying lock ownership, raising when absent."""

    def mark(fn):
        fn.__asserts_lock__ = name
        return fn

    return mark


class FileLock:
    """An advisory, crash-released, inter-process exclusive lock.

    Args:
        path: Lock file location; created (with parents) on first acquire.
            The file itself carries no data — only its kernel lock state
            matters — so a stale file left by a killed process is harmless.
        timeout_s: Default acquisition deadline (overridable per call).

    Not thread-reentrant and not shared between threads: one instance per
    acquiring context. Use as a context manager for the common case::

        with FileLock(store_root / ".lock"):
            ...mutate multiple files...
    """

    def __init__(
        self, path: Union[str, Path], *, timeout_s: float = 30.0
    ) -> None:
        self.path = Path(path)
        self.timeout_s = timeout_s
        self._fd: Optional[int] = None

    @property
    def locked(self) -> bool:
        return self._fd is not None

    def acquire(self, timeout_s: Optional[float] = None) -> bool:
        """Take the lock; ``True`` on success.

        ``timeout_s=0`` is a single non-blocking attempt returning
        ``False`` when the lock is held elsewhere; a positive timeout polls
        until the deadline, then raises
        :class:`~repro.errors.LockTimeoutError`. Re-acquiring a lock this
        instance already holds is an error (no reentrancy to mask bugs).
        """
        if self._fd is not None:
            raise LockTimeoutError(
                f"lock {self.path} is already held by this instance",
                path=str(self.path),
            )
        deadline_s = self.timeout_s if timeout_s is None else timeout_s
        fd = self._open()
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            self._fd = fd
            return True
        deadline = time.monotonic() + deadline_s
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                if time.monotonic() >= deadline:
                    os.close(fd)
                    if deadline_s <= 0:
                        return False
                    raise LockTimeoutError(
                        f"could not acquire lock {self.path} within "
                        f"{deadline_s:g}s (held by another process)",
                        path=str(self.path), timeout_s=deadline_s,
                    ) from None
                time.sleep(_POLL_S)
            else:
                self._fd = fd
                return True

    def release(self) -> None:
        """Drop the lock (idempotent)."""
        fd, self._fd = self._fd, None
        if fd is None:
            return
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def _open(self) -> int:
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            return os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError as exc:
            raise LockTimeoutError(
                f"cannot open lock file {self.path}: {exc}",
                path=str(self.path),
            ) from None

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *_exc) -> None:
        self.release()

    def __del__(self) -> None:  # belt and braces; the kernel also releases
        try:
            self.release()
        except Exception:
            pass
