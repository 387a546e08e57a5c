"""FileLock: the advisory inter-process lock guarding multi-file store
mutations (``clear``, ``verify(repair=True)``) and the journal's
single-writer rule."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.engine.locks import FileLock
from repro.errors import LockTimeoutError

mp = multiprocessing.get_context("fork")


# -- FileLock ---------------------------------------------------------------

def test_acquire_release_roundtrip(tmp_path):
    lock = FileLock(tmp_path / "x.lock")
    assert not lock.locked
    assert lock.acquire() is True
    assert lock.locked
    lock.release()
    assert not lock.locked
    lock.release()  # idempotent


def test_context_manager(tmp_path):
    with FileLock(tmp_path / "x.lock") as lock:
        assert lock.locked
    assert not lock.locked


def test_reacquire_held_lock_raises(tmp_path):
    with FileLock(tmp_path / "x.lock") as lock:
        with pytest.raises(LockTimeoutError):
            lock.acquire()


def test_creates_parent_directories(tmp_path):
    with FileLock(tmp_path / "a" / "b" / "x.lock") as lock:
        assert lock.locked


def test_unopenable_path_raises_lock_timeout(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(LockTimeoutError):
        FileLock(blocker / "x.lock").acquire()


def _hold_lock(path, held, release):
    lock = FileLock(path)
    lock.acquire()
    held.set()
    release.wait(10)
    lock.release()


def test_second_process_nonblocking_returns_false(tmp_path):
    path = tmp_path / "x.lock"
    held, release = mp.Event(), mp.Event()
    child = mp.Process(target=_hold_lock, args=(path, held, release))
    child.start()
    try:
        assert held.wait(10)
        assert FileLock(path).acquire(timeout_s=0) is False
        with pytest.raises(LockTimeoutError):
            FileLock(path).acquire(timeout_s=0.05)
    finally:
        release.set()
        child.join(10)
    # Released by the child: immediately acquirable again.
    assert FileLock(path).acquire(timeout_s=0) is True


def _hold_lock_and_die(path, held):
    lock = FileLock(path)  # reference kept: __del__ must not release it
    lock.acquire()
    held.set()
    time.sleep(30)  # killed long before this returns


def test_kernel_releases_lock_on_process_death(tmp_path):
    """SIGKILL of the holder must never wedge the lock (crash safety)."""
    path = tmp_path / "x.lock"
    held = mp.Event()
    child = mp.Process(target=_hold_lock_and_die, args=(path, held))
    child.start()
    assert held.wait(10)
    assert FileLock(path).acquire(timeout_s=0) is False  # genuinely held
    os.kill(child.pid, 9)
    child.join(10)
    lock = FileLock(path)
    assert lock.acquire(timeout_s=5.0) is True
    lock.release()
