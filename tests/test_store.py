"""Content-addressed result store (repro.engine.store) + executor reuse.

Covers the store's own contracts (fingerprint stability, atomic entry IO,
corruption tolerance, verify/clear) and the executor integration:
warm-cache campaign results must be *bit-identical* to cold runs across
serial and parallel execution, and a killed-then-resumed campaign must
complete from the store with the same merged output as an uninterrupted
cold run.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import multiprocessing
import os
import pickle
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SynthesisConfig
from repro.core.frequency_sweep import sweep_frequencies
from repro.engine import ResultStore, fingerprint_task, run_tasks
from repro.engine.faults import FaultSpec, FaultyTask
from repro.engine.reference import naive_fingerprint_task
from repro.engine.store import (
    _FRAME, STORE_FORMAT, _fingerprint, _walk_pack, open_store,
)
from repro.engine.tasks import BatchSimulationTask, SimulationTask, SynthesisTask
from repro.errors import StoreError

from _simtopo import contended_topology

FREQS = (400.0, 500.0, 600.0)
CONFIG = SynthesisConfig(max_ill=10, switch_count_range=(2, 3))


def _sim_tasks(n=4, cycles=300, **overrides):
    """Cheap deterministic engine tasks: tiny wormhole simulations."""
    topo = contended_topology()
    return [
        SimulationTask(
            key=("sim", seed), topology=topo, seed=seed, cycles=cycles,
            warmup=0, **overrides,
        )
        for seed in range(n)
    ]


def _payload_bytes(results):
    return [pickle.dumps(r.result) for r in results]


class TestFingerprint:
    def test_stable_across_calls(self):
        a, b = _sim_tasks(1)[0], _sim_tasks(1)[0]
        assert fingerprint_task(a) == fingerprint_task(b)

    def test_key_and_label_fields_excluded(self):
        task = _sim_tasks(1)[0]
        import dataclasses

        relabeled = dataclasses.replace(task, key="something-else")
        assert fingerprint_task(task) == fingerprint_task(relabeled)

    def test_payload_fields_included(self):
        base, other = _sim_tasks(2)
        assert fingerprint_task(base) != fingerprint_task(other)

    def test_salt_changes_digest(self):
        task = _sim_tasks(1)[0]
        assert fingerprint_task(task, salt="a") != fingerprint_task(
            task, salt="b"
        )

    def test_synthesis_task_config_distinguishes(self, tiny_specs):
        core_spec, comm_spec = tiny_specs
        t1 = SynthesisTask(key=0, core_spec=core_spec, comm_spec=comm_spec,
                           config=CONFIG)
        t2 = SynthesisTask(key=0, core_spec=core_spec, comm_spec=comm_spec,
                           config=CONFIG.with_(frequency_mhz=500.0))
        assert fingerprint_task(t1) != fingerprint_task(t2)

    def test_numpy_floats_address_like_plain_floats(self):
        """A routed topology carries np.float64 lengths and coordinates; its
        address must not depend on how the installed numpy spells them."""
        plain, wrapped = contended_topology(), contended_topology()
        for link in wrapped.links:
            link.length_mm = np.float64(link.length_mm)
        for sw in wrapped.switches:
            sw.x, sw.y = np.float64(sw.x + 0.25), np.float64(sw.y)
        for sw in plain.switches:
            sw.x, sw.y = sw.x + 0.25, float(sw.y)
        a, b = (SimulationTask(key=0, topology=t) for t in (plain, wrapped))
        assert fingerprint_task(a) == fingerprint_task(b)
        assert naive_fingerprint_task(a) == naive_fingerprint_task(b)

    def test_int_enum_distinct_from_plain_int(self):
        import enum
        import hashlib

        from repro.engine.store import _feed

        class Level(enum.IntEnum):
            ONE = 1

        def digest(value):
            h = hashlib.sha256()
            _feed(h, value)
            return h.hexdigest()

        assert digest(Level.ONE) != digest(1)
        assert digest(Level.ONE) == digest(Level.ONE)

    def test_same_named_classes_different_modules_distinct(self):
        import dataclasses
        import hashlib

        from repro.engine.store import _feed

        a_cls = dataclasses.make_dataclass("Thing", [("x", int)])
        b_cls = dataclasses.make_dataclass("Thing", [("x", int)])
        a_cls.__module__ = "pkg_a"
        b_cls.__module__ = "pkg_b"

        def digest(value):
            h = hashlib.sha256()
            _feed(h, value)
            return h.hexdigest()

        assert digest(a_cls(x=1)) != digest(b_cls(x=1))

    def test_unfingerprintable_payload_raises(self):
        task = SimulationTask(key=0, topology=object())
        with pytest.raises(StoreError):
            fingerprint_task(task)

    def test_store_fingerprint_degrades_to_uncacheable(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.fingerprint(SimulationTask(key=0, topology=object())) is None

    def test_skip_tasks_uncacheable(self, tiny_specs, tmp_path):
        core_spec, comm_spec = tiny_specs
        task = SynthesisTask(key=0, core_spec=core_spec, comm_spec=comm_spec,
                             config=CONFIG, skip=True, skip_reason="infeasible")
        assert ResultStore(tmp_path).fingerprint(task) is None


class TestStoreIO:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        task = _sim_tasks(1)[0]
        fp = store.fingerprint(task)
        assert store.get(fp) is None
        assert store.put(fp, {"x": 1}, task_type="SimulationTask",
                         elapsed_s=0.25)
        entry = store.get(fp)
        assert entry.payload == {"x": 1}
        assert entry.task_type == "SimulationTask"
        assert entry.elapsed_s == 0.25
        assert store.hits == 1 and store.misses == 1

    def test_reopened_store_serves_entries(self, tmp_path):
        fp = ResultStore(tmp_path).fingerprint(_sim_tasks(1)[0])
        ResultStore(tmp_path).put(fp, [1, 2, 3])
        assert ResultStore(tmp_path).get(fp).payload == [1, 2, 3]

    def test_different_salt_misses(self, tmp_path):
        task = _sim_tasks(1)[0]
        store_a = ResultStore(tmp_path, salt="a")
        store_a.put(store_a.fingerprint(task), "A")
        store_b = ResultStore(tmp_path, salt="b")
        # Different salt -> different address entirely.
        assert store_b.get(store_b.fingerprint(task)) is None

    def test_corrupt_entry_is_a_miss_and_dropped(self, tmp_path):
        store = ResultStore(tmp_path)
        fp = store.fingerprint(_sim_tasks(1)[0])
        store.put(fp, "payload")
        path, offset, length = _frame(store, fp)
        os.truncate(path, offset + _FRAME.size + length // 2)  # mid-record
        assert store.get(fp) is None
        assert store.corrupt_dropped == 1
        assert fp not in store._packs.entries
        assert [reason for _, reason in store.verify().bad] == ["torn frame"]
        # Dropped from the index, so not read (nor counted corrupt) again.
        assert store.get(fp) is None
        assert (store.misses, store.corrupt_dropped) == (2, 1)

    def test_foreign_file_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        fp = store.fingerprint(_sim_tasks(1)[0])
        store._packs.append(
            fp, pickle.dumps({"not": "a store record"}), pickle.dumps("x")
        )
        assert store.get(fp) is None

    def test_verify_and_repair(self, tmp_path):
        store = ResultStore(tmp_path)
        tasks = _sim_tasks(3)
        fps = [store.fingerprint(t) for t in tasks]
        for fp in fps:
            store.put(fp, "ok")
        path, offset, length = _frame(store, fps[0])
        _flip_byte(path, offset + _FRAME.size + length - 1)
        report = store.verify()
        assert (report.checked, report.ok, len(report.bad)) == (3, 2, 1)
        assert not report.clean
        repaired = store.verify(repair=True)
        assert repaired.removed == 1
        assert store.verify().clean
        assert store.stats().entries == 2

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        for task in _sim_tasks(3):
            store.put(store.fingerprint(task), "x")
        assert store.clear() == (3, 0)
        assert store.stats().entries == 0

    def test_unpicklable_payload_degrades_to_not_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        fp = store.fingerprint(_sim_tasks(1)[0])
        with open(tmp_path / "scratch", "w") as handle:
            assert store.put(fp, {"handle": handle}) is False
        assert store.get(fp) is None
        assert store.stats().entries == 0

    def test_inflight_temp_files_are_not_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        fp = store.fingerprint(_sim_tasks(1)[0])
        store.put(fp, "real")
        orphan = tmp_path / "packs" / ".tmp-orphan"
        orphan.write_bytes(b"half-written")
        # Invisible to stats/verify — never reported, never touched.
        assert store.stats().entries == 1
        assert store.verify().clean
        assert orphan.exists()
        # clear() sweeps orphans along with the entries.
        assert store.clear() == (1, 0)
        assert not orphan.exists()

    def test_transient_open_failure_keeps_the_entry(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        fp = store.fingerprint(_sim_tasks(1)[0])
        store.put(fp, "precious")
        path = _frame(store, fp)[0]
        real_open = os.open

        def flaky_open(file, *args, **kwargs):
            if str(file) == str(path):
                raise OSError(24, "Too many open files")
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(os, "open", flaky_open)
        assert store.get(fp) is None  # a miss...
        monkeypatch.undo()
        assert store.corrupt_dropped == 0
        assert store.get(fp).payload == "precious"  # ...not a deletion

    def test_fresh_store_makes_no_objects_directory(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(store.fingerprint(_sim_tasks(1)[0]), "x",
                  task_type="SimulationTask")
        assert [p.name for p in tmp_path.iterdir()] == ["packs"]

    def test_leftover_entry_files_are_neither_read_nor_counted(
        self, tmp_path
    ):
        """Versions before packs filed whole-task entries one file each,
        under ``objects/``; such a file is left alone."""
        store = ResultStore(tmp_path)
        fp = store.fingerprint(_sim_tasks(1)[0])
        header = {"format": STORE_FORMAT, "fingerprint": fp,
                  "salt": store.salt, "task_type": "SimulationTask",
                  "elapsed_s": 0.0, "created_s": 0.0}
        old = tmp_path / "objects" / fp[:2] / (fp[2:] + ".pkl")
        old.parent.mkdir(parents=True)
        old.write_bytes(pickle.dumps(header) + pickle.dumps("old"))
        assert store.get(fp) is None and not store.indexed(fp, refresh=True)
        assert store.stats().entries == 0 and store.entries() == {}
        assert store.verify().checked == 0
        assert store.clear() == (0, 0)
        assert old.exists()

    def test_readonly_open_never_creates_or_probes(self, tmp_path):
        missing = tmp_path / "never-created"
        store = ResultStore(missing, readonly=True)
        assert store.stats().entries == 0
        assert store.verify().checked == 0
        assert not missing.exists()

    def test_invalid_root_raises_clear_error(self, tmp_path):
        as_file = tmp_path / "plain-file"
        as_file.write_text("not a directory")
        with pytest.raises(StoreError, match="not a directory"):
            ResultStore(as_file)
        with pytest.raises(StoreError, match="cannot create"):
            ResultStore(as_file / "sub")

    def test_open_store_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envstore"))
        store = open_store()
        assert store.root == tmp_path / "envstore"
        assert store.root.is_dir()


def _fp(name) -> str:
    return hashlib.sha256(name.encode()).hexdigest()


def _put_stage(store, name, payload=None):
    fp = _fp(name)
    assert store.put(fp, payload or name, task_type="stage:demo")
    return fp


def _frame(store, fp):
    """``(pack path, frame offset, body length)`` of a packed record."""
    pack, offset, length, _crc = store._packs.entries[fp]
    return store._packs.path(pack), offset, length


def _flip_byte(path, offset):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ 0xFF]))


def _fork(fn, *args):
    """``fn(*args)`` in a forked child process, which then exits; the
    child shares every object of this process as it was at the fork."""
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: send.send(fn(*args)), daemon=True)
    child.start()
    assert receive.poll(30), "the child process sent nothing"
    result = receive.recv()
    child.join(30)
    assert child.exitcode == 0
    return result


def _child_put(root, name):
    return _put_in(ResultStore(root), name)


def _put_in(store, name):
    fp = _put_stage(store, name)
    return os.getpid(), store._packs._pack, fp


def _child_get(root, fp):
    entry = ResultStore(root).get(fp)
    return None if entry is None else entry.payload


def _child_put_task(root):
    store = ResultStore(root)
    fp = store.fingerprint(_sim_tasks(1)[0])
    assert store.put(fp, "from the child", task_type="SimulationTask")
    return fp


class TestStagePacks:
    """Stage records and whole-task entries are frames appended to
    per-process packs."""

    def test_stage_records_are_frames_not_files(self, tmp_path):
        store = ResultStore(tmp_path)
        fp = _put_stage(store, "a", payload={"x": 1})
        task_fp = store.fingerprint(_sim_tasks(1)[0])
        store.put(task_fp, "whole", task_type="SimulationTask")
        pack = tmp_path / "packs" / "000000.pack"
        assert list((tmp_path / "packs").iterdir()) == [pack]
        assert [frame[1] for frame in _walk_pack(pack)] == [fp, task_fp]
        entry = store.get(fp)
        assert entry.payload == {"x": 1} and entry.task_type == "stage:demo"
        assert store.indexed(fp) and store.indexed(task_fp)
        whole = store.get(task_fp)
        assert whole.payload == "whole"
        assert whole.task_type == "SimulationTask"
        assert store.size_of(fp) == _FRAME.size + _frame(store, fp)[2]
        assert (store.size_of(fp) + store.size_of(task_fp)
                == pack.stat().st_size)
        stats = store.stats()
        assert stats.by_task_type == {"stage:demo": 1, "SimulationTask": 1}
        assert store.entries() == {fp: "stage:demo",
                                   task_fp: "SimulationTask"}

    def test_a_given_pickle_is_filed_as_is(self, tmp_path):
        """``put(..., pickled=)`` files the caller's bytes as the payload
        pickle, in the same frame layout, and ``payload`` is not pickled."""
        store = ResultStore(tmp_path)
        data = pickle.dumps({"x": [1, 2]}, protocol=pickle.HIGHEST_PROTOCOL)
        fp = store.fingerprint(_sim_tasks(1)[0])
        unpicklable = lambda: None  # noqa: E731
        assert store.put(fp, unpicklable, pickled=data,
                         task_type="SimulationTask")
        [(_offset, frame_fp, frame, problem)] = list(
            _walk_pack(tmp_path / "packs" / "000000.pack")
        )
        assert (frame_fp, problem) == (fp, None)
        assert frame.endswith(data)
        fresh = ResultStore(tmp_path)
        entry = fresh.get(fp)
        assert entry.payload == {"x": [1, 2]}
        assert entry.task_type == "SimulationTask"

    def test_close_needs_no_module_globals(self, tmp_path, monkeypatch):
        """At interpreter exit ``__del__`` may run after the module's
        globals are cleared: closing a writer still closes its pack."""
        import repro.engine.store as store_mod

        store = ResultStore(tmp_path)
        _put_stage(store, "a")
        packs = store._packs
        fd = packs._fd
        assert fd is not None
        monkeypatch.setattr(store_mod, "os", None)
        packs.close()
        monkeypatch.undo()
        assert packs._fd is None
        with pytest.raises(OSError):
            os.fstat(fd)

    def test_a_fingerprint_put_twice_counts_once(self, tmp_path):
        """Two frames of one fingerprint (two processes racing to the same
        miss, a recompute after a corrupt frame) are one entry; the last
        intact frame wins, as in ``get``."""
        store = ResultStore(tmp_path)
        fp = _put_stage(store, "a", payload="first")
        assert store.put(fp, "second", task_type="stage:demo")
        assert store.stats().entries == 1 and len(store.entries()) == 1
        assert store.get(fp).payload == "second"
        # A third frame, in another process's pack.
        assert _fork(_child_put, tmp_path, "a")[2] == fp
        assert store.stats().by_task_type == {"stage:demo": 1}
        assert store.entries() == {fp: "stage:demo"}
        assert ResultStore(tmp_path).get(fp).payload == "a"
        assert store.clear() == (1, 0)

    def test_stats_bytes_count_every_frame(self, tmp_path, capsys):
        """A fingerprint put twice is one entry, but both frames are on
        disk: ``total_bytes`` counts both and ``shadowed`` the hidden one,
        as ``cache verify`` checks both."""
        from repro.cli import main

        store = ResultStore(tmp_path)
        fp = _put_stage(store, "a")
        once = store.stats()
        assert (once.entries, once.shadowed) == (1, 0)
        assert store.put(fp, "a", task_type="stage:demo")
        twice = store.stats()
        assert (twice.entries, twice.shadowed) == (1, 1)
        assert twice.by_task_type == {"stage:demo": 1}
        pack = tmp_path / "packs" / "000000.pack"
        assert twice.total_bytes == pack.stat().st_size
        assert twice.total_bytes == 2 * once.total_bytes
        assert store.verify().checked == 2
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 1 (" in out and "shadowed frames: 1" in out

    def test_a_task_entry_a_forked_child_wrote_is_served(self, tmp_path):
        fp = _fork(_child_put_task, tmp_path)
        store = ResultStore(tmp_path)
        assert store.get(fp).payload == "from the child"
        assert store.entries() == {fp: "SimulationTask"}

    def test_torn_tail_is_a_miss_and_later_appends_are_served(
        self, tmp_path
    ):
        store = ResultStore(tmp_path)
        first, second = _put_stage(store, "a"), _put_stage(store, "b")
        path, offset, length = _frame(store, second)
        os.truncate(path, offset + _FRAME.size + length // 2)
        assert store.get(second) is None
        assert store.get(first).payload == "a"
        later = _put_stage(store, "c")
        assert store.get(later).payload == "c"
        # A new process: the torn frame ends its scan of the first pack,
        # and the later record sits in a pack of its own.
        assert _fork(_child_get, tmp_path, later) == "c"
        assert _fork(_child_get, tmp_path, first) == "a"
        assert _fork(_child_get, tmp_path, second) is None
        report = store.verify()
        assert [reason for _, reason in report.bad] == ["torn frame"]
        assert report.bad[0][0] == f"{path}@{offset}"
        assert store.verify(repair=True).removed == 1
        assert store.verify().clean
        assert store.stats().entries == 2

    def test_flipped_byte_is_a_miss_and_verify_reports_it(self, tmp_path):
        store = ResultStore(tmp_path)
        bad, good = _put_stage(store, "a"), _put_stage(store, "b")
        path, offset, length = _frame(store, bad)
        _flip_byte(path, offset + _FRAME.size + length - 1)
        assert store.get(bad) is None
        assert store.corrupt_dropped == 1
        assert store.get(good).payload == "b"
        report = store.verify()
        assert (report.checked, report.ok) == (2, 1)
        assert report.bad == [(f"{path}@{offset}", "CRC mismatch")]
        assert store.verify(repair=True).removed == 1
        assert store.verify().clean
        assert store.entries() == {good: "stage:demo"}
        assert store.get(good).payload == "b"

    def test_forked_writers_get_their_own_packs(self, tmp_path):
        store = ResultStore(tmp_path)
        mine = _put_stage(store, "parent")
        # One child appends through the store it inherited, whose pack is
        # open in the parent; the other opens the store afresh.
        children = [_fork(_put_in, store, "child-0"),
                    _fork(_child_put, tmp_path, "child-1")]
        later = _put_stage(store, "parent-later")
        packs = {pack for _pid, pack, _fp in children}
        assert {pid for pid, _pack, _fp in children} != {os.getpid()}
        assert len(packs) == 2 and store._packs._pack not in packs
        assert len(list((tmp_path / "packs").iterdir())) == 3
        fps = [mine, later] + [fp for _pid, _pack, fp in children]
        assert all(store.get(fp) is not None for fp in fps)
        own = ResultStore(tmp_path, readonly=True)
        assert {fp for fp, _t in own.entries().items()} == set(fps)
        own_pack = Path(_frame(store, mine)[0])
        assert [frame[1] for frame in _walk_pack(own_pack)] == [
            mine, later,
        ]

    def test_record_a_sibling_wrote_after_the_index_was_built(
        self, tmp_path
    ):
        store = ResultStore(tmp_path)
        _put_stage(store, "mine")
        fp = _fp("sibling")
        # The index is built, without it.
        assert store.get(fp) is None
        assert _fork(_child_put, tmp_path, "sibling")[2] == fp
        assert store.get(fp).payload == "sibling"

    def test_live_sibling_pack_is_rescanned_as_it_grows(self, tmp_path):
        """A pack whose writer still holds it is never taken as final."""
        ctx = multiprocessing.get_context("fork")
        here, there = ctx.Pipe()

        def sibling():
            sibling_store = ResultStore(tmp_path)
            for name in ("first", "second"):
                there.send(_put_stage(sibling_store, name))
                if not there.poll(30):
                    return

        child = ctx.Process(target=sibling, daemon=True)
        child.start()
        store = ResultStore(tmp_path)
        for name in ("first", "second"):
            assert here.poll(30)
            fp = here.recv()
            assert store.get(fp).payload == name
            here.send("next")
        child.join(30)
        assert child.exitcode == 0

    def test_record_written_after_a_clear_is_found(self, tmp_path):
        """A clear and a new pack under a reused number change the packs
        directory, so a refresh looks at final packs again."""
        store = ResultStore(tmp_path)
        _, _, before = _fork(_child_put, tmp_path, "before")
        assert store.get(before).payload == "before"
        time.sleep(0.05)  # a directory timestamp may be one tick coarse
        assert ResultStore(tmp_path).clear() == (1, 0)
        _, pack, after = _fork(_child_put, tmp_path, "after")
        assert pack == 0
        assert store.get(after).payload == "after"
        assert store.get(before) is None

    def test_record_of_a_dead_process_is_served_to_the_next(self, tmp_path):
        _, _, fp = _fork(_child_put, tmp_path, "gone")
        assert _fork(_child_get, tmp_path, fp) == "gone"

    def test_clear_removes_packs(self, tmp_path):
        store = ResultStore(tmp_path)
        fps = [_put_stage(store, name) for name in "abc"]
        store.put(store.fingerprint(_sim_tasks(1)[0]), "x")
        assert store.clear() == (4, 0)
        assert list((tmp_path / "packs").iterdir()) == []
        assert all(store.get(fp) is None for fp in fps)
        again = _put_stage(store, "d")
        assert store.get(again).payload == "d"
        assert store.stats().entries == 1


class TestExecutorIntegration:
    def test_warm_run_is_bit_identical_serial_and_parallel(self, tmp_path):
        tasks = _sim_tasks(4)
        baseline = run_tasks(tasks, jobs=1)
        store = ResultStore(tmp_path)
        cold = run_tasks(tasks, jobs=1, store=store)
        warm_serial = run_tasks(tasks, jobs=1, store=store)
        warm_parallel = run_tasks(tasks, jobs=2, store=store)
        assert _payload_bytes(baseline) == _payload_bytes(cold)
        assert _payload_bytes(cold) == _payload_bytes(warm_serial)
        assert _payload_bytes(cold) == _payload_bytes(warm_parallel)
        assert [r.cached for r in cold] == [False] * 4
        assert [r.cached for r in warm_serial] == [True] * 4
        assert [r.key for r in warm_parallel] == [t.key for t in tasks]

    def test_parallel_cold_run_populates_store(self, tmp_path):
        tasks = _sim_tasks(4)
        store = ResultStore(tmp_path)
        cold = run_tasks(tasks, jobs=2, store=store)
        assert store.stats().entries == 4
        warm = run_tasks(tasks, jobs=1, store=store)
        assert _payload_bytes(cold) == _payload_bytes(warm)
        assert all(r.cached for r in warm)

    def test_duplicate_keys_map_to_their_own_entries(self, tmp_path):
        a, b = _sim_tasks(2)
        import dataclasses

        b = dataclasses.replace(b, key=a.key)  # same label, different content
        store = ResultStore(tmp_path)
        cold = run_tasks([a, b], jobs=1, store=store)
        warm = run_tasks([a, b], jobs=1, store=store)
        assert all(r.cached for r in warm)
        assert _payload_bytes(cold) == _payload_bytes(warm)
        # Distinct content => distinct results survived the same label.
        assert pickle.dumps(warm[0].result) != pickle.dumps(warm[1].result)

    def test_progress_counts_hits_and_misses_once_each(self, tmp_path):
        tasks = _sim_tasks(4)
        store = ResultStore(tmp_path)
        run_tasks(tasks[:2], jobs=1, store=store)
        seen = []
        run_tasks(
            tasks, jobs=1, store=store,
            progress=lambda done, total, key: seen.append((done, total, key)),
        )
        assert [s[0] for s in seen] == [1, 2, 3, 4]
        assert all(s[1] == 4 for s in seen)
        assert sorted(s[2] for s in seen) == sorted(t.key for t in tasks)

    def test_errors_are_not_cached(self, tmp_path):
        bad = SimulationTask(key="bad", topology=contended_topology(),
                             cycles=100, warmup=0, scenario="no-such-scenario")
        store = ResultStore(tmp_path)
        results = run_tasks([bad], jobs=1, store=store, raise_errors=False)
        assert results[0].error is not None
        assert store.stats().entries == 0

    def test_interrupted_campaign_resumes_bit_identical(self, tmp_path):
        """Kill a campaign partway; the rerun completes from the store and
        merges byte-identically to an uninterrupted cold run."""
        tasks = _sim_tasks(6)
        cold = run_tasks(tasks, jobs=1)

        class Killed(Exception):
            pass

        def killer(done, total, key):
            if done == 3:
                raise Killed  # the process dies mid-campaign

        store = ResultStore(tmp_path)
        with pytest.raises(Killed):
            run_tasks(tasks, jobs=1, store=store, progress=killer)
        checkpointed = store.stats().entries
        assert 0 < checkpointed < len(tasks)

        resumed = run_tasks(tasks, jobs=1, store=store)
        assert _payload_bytes(resumed) == _payload_bytes(cold)
        assert sum(r.cached for r in resumed) == checkpointed

    def test_interrupted_parallel_campaign_resumes(self, tmp_path):
        tasks = _sim_tasks(6)
        cold = run_tasks(tasks, jobs=1)

        class Killed(Exception):
            pass

        def killer(done, total, key):
            if done == 2:
                raise Killed

        store = ResultStore(tmp_path)
        with pytest.raises(Killed):
            run_tasks(tasks, jobs=2, store=store, progress=killer)
        # Whatever completed before the kill is on disk; the resume — this
        # time in parallel — finishes the rest and merges identically.
        resumed = run_tasks(tasks, jobs=2, store=store)
        assert _payload_bytes(resumed) == _payload_bytes(cold)
        assert store.stats().entries == len(tasks)


def _batch_sim_task(seeds, key="batch", cycles=300):
    return BatchSimulationTask(
        key=key, topology=contended_topology(), seeds=tuple(seeds),
        cycles=cycles, warmup=0,
    )


class TestBatchTaskStore:
    """A batched run is addressed as the *set* of its per-replication
    runs: warm caches and resume stay bit-identical with batching on or
    off, and chunking never appears in any store address."""

    def test_expansion_addresses_are_the_solo_addresses(self):
        batch = _batch_sim_task(range(4))
        solo_fps = [fingerprint_task(t) for t in _sim_tasks(4)]
        assert [
            fingerprint_task(s) for s in batch.expand_for_store()
        ] == solo_fps
        # ... regardless of the batch's own key or chunking.
        import dataclasses

        rekeyed = dataclasses.replace(batch, key="other-label")
        assert [
            fingerprint_task(s) for s in rekeyed.expand_for_store()
        ] == solo_fps
        narrowed = batch.narrow((1, 3))
        assert [
            fingerprint_task(s) for s in narrowed.expand_for_store()
        ] == [solo_fps[1], solo_fps[3]]

    def test_batch_warm_over_cold_solo_store(self, tmp_path):
        solo_tasks = _sim_tasks(4)
        store = ResultStore(tmp_path)
        cold = run_tasks(solo_tasks, jobs=1, store=store)
        warm_store = ResultStore(tmp_path)
        warm = run_tasks([_batch_sim_task(range(4))], jobs=1,
                         store=warm_store)
        assert warm[0].cached
        assert warm_store.hits == 4 and warm_store.misses == 0
        assert [pickle.dumps(r) for r in warm[0].result] == _payload_bytes(
            cold
        )

    def test_solo_warm_over_cold_batch_store(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = run_tasks([_batch_sim_task(range(4))], jobs=1, store=store)
        assert not cold[0].cached
        assert store.stats().entries == 4
        # The batch checkpointed under SimulationTask, not its own type.
        assert store.stats().by_task_type == {"SimulationTask": 4}
        warm_store = ResultStore(tmp_path)
        warm = run_tasks(_sim_tasks(4), jobs=1, store=warm_store)
        assert all(r.cached for r in warm)
        assert _payload_bytes(warm) == [
            pickle.dumps(r) for r in cold[0].result
        ]

    def test_partial_warm_batch_narrows_to_the_misses(self, tmp_path):
        solo_tasks = _sim_tasks(4)
        store = ResultStore(tmp_path)
        run_tasks([solo_tasks[1], solo_tasks[3]], jobs=1, store=store)
        mid_store = ResultStore(tmp_path)
        mixed = run_tasks([_batch_sim_task(range(4))], jobs=1,
                          store=mid_store)
        assert not mixed[0].cached  # two replications were computed...
        assert mid_store.hits == 2  # ...two replayed, merged in seed order
        assert [pickle.dumps(r) for r in mixed[0].result] == _payload_bytes(
            run_tasks(solo_tasks, jobs=1)
        )
        warm_store = ResultStore(tmp_path)
        warm = run_tasks([_batch_sim_task(range(4))], jobs=1,
                         store=warm_store)
        assert warm[0].cached and warm_store.hits == 4

    def test_killed_mid_batch_campaign_resumes(self, tmp_path):
        """Kill a batched campaign between chunks: completed chunks are on
        disk replication-by-replication; the resume replays them and only
        computes the unfinished chunk, merging bit-identically."""
        chunks = [_batch_sim_task(range(0, 3), key="chunk0"),
                  _batch_sim_task(range(3, 6), key="chunk1")]
        cold_solo = run_tasks(_sim_tasks(6), jobs=1)

        class Killed(Exception):
            pass

        def killer(done, total, key):
            if done == 1:
                raise Killed

        store = ResultStore(tmp_path)
        with pytest.raises(Killed):
            run_tasks(chunks, jobs=1, store=store, progress=killer)
        checkpointed = store.stats().entries
        assert 0 < checkpointed < 6  # one chunk's replications, not both

        resume_store = ResultStore(tmp_path)
        resumed = run_tasks(chunks, jobs=1, store=resume_store)
        flat = [r for chunk in resumed for r in chunk.result]
        assert [pickle.dumps(r) for r in flat] == _payload_bytes(cold_solo)
        assert resumed[0].cached and not resumed[1].cached
        assert resume_store.hits == checkpointed
        assert ResultStore(tmp_path).stats().entries == 6

    def test_errored_batch_is_not_cached(self, tmp_path):
        bad = BatchSimulationTask(
            key="bad", topology=contended_topology(), seeds=(0, 1),
            cycles=100, warmup=0, scenario="no-such-scenario",
        )
        store = ResultStore(tmp_path)
        results = run_tasks([bad], jobs=1, store=store, raise_errors=False)
        assert results[0].error is not None
        assert store.stats().entries == 0


class TestCampaignDifferential:
    """Warm-cache campaign outputs must be bit-identical to cold runs."""

    def test_frequency_sweep_cold_warm_serial_parallel(
        self, tiny_specs, tmp_path
    ):
        core_spec, comm_spec = tiny_specs
        baseline = sweep_frequencies(
            core_spec, comm_spec, FREQS, config=CONFIG, jobs=1
        )
        store = ResultStore(tmp_path)
        cold = sweep_frequencies(
            core_spec, comm_spec, FREQS, config=CONFIG, jobs=1, store=store
        )
        warm_serial = sweep_frequencies(
            core_spec, comm_spec, FREQS, config=CONFIG, jobs=1, store=store
        )
        warm_parallel = sweep_frequencies(
            core_spec, comm_spec, FREQS, config=CONFIG, jobs=2, store=store
        )
        # Compare per-frequency result blobs: whole-dict pickles encode
        # object sharing *across* independently computed/unpickled results,
        # which is representation, not content.
        blobs = [
            tuple(pickle.dumps(s.per_frequency[f]) for f in s.frequencies)
            for s in (baseline, cold, warm_serial, warm_parallel)
        ]
        assert len(set(blobs)) == 1
        assert (
            warm_serial.best_power().total_power_mw
            == baseline.best_power().total_power_mw
        )

    def test_simulation_campaign_cold_warm_serial_parallel(self, tmp_path):
        from repro.experiments.simulation_validation import (
            run_simulation_validation,
        )

        kwargs = dict(
            benchmark="d26_media",
            injection_scales=(0.1, 0.5),
            cycles=1_500,
            warmup=150,
            config=SynthesisConfig(max_ill=25, switch_count_range=(3, 5)),
            scenarios=("bernoulli", "bursty"),
            seeds=(0, 1),
        )
        baseline = run_simulation_validation(jobs=1, **kwargs)
        store = ResultStore(tmp_path)
        cold = run_simulation_validation(jobs=1, store=store, **kwargs)
        warm = run_simulation_validation(jobs=1, store=store, **kwargs)
        warm_parallel = run_simulation_validation(jobs=2, store=store, **kwargs)
        blobs = [
            pickle.dumps(t.rows)
            for t in (baseline, cold, warm, warm_parallel)
        ]
        assert len(set(blobs)) == 1
        # The synthesis itself was checkpointed too: 8 sim runs + 1 synth.
        assert store.stats().by_task_type == {
            "SimulationTask": 8, "SynthesisTask": 1,
        }

    def test_cli_sim_and_sim_campaign_share_addresses(self, tmp_path):
        """``run_simulation_validation`` (the ``cli sim`` path) files each
        run where the equivalent compiled ``sim`` campaign looks for it."""
        from repro.campaign.spec import CampaignSpec, compile_campaign
        from repro.experiments.simulation_validation import (
            run_simulation_validation,
        )

        spec = CampaignSpec.from_dict({
            "name": "same-sim", "kind": "sim", "benchmark": "d26_media",
            "config": {"switch_count_range": [3, 5]},
            "scenarios": ["bernoulli"], "seeds": [0, 1],
            "injection_scales": [0.5], "cycles": 1_000, "warmup": 100,
        })
        run_simulation_validation(
            spec.benchmark, injection_scales=spec.injection_scales,
            cycles=spec.cycles, warmup=spec.warmup,
            config=spec.base_config(),
            packet_length_flits=spec.packet_length_flits,
            scenarios=spec.scenarios, seeds=spec.seeds, jobs=1,
            store=ResultStore(tmp_path),
        )
        store = ResultStore(tmp_path)
        tasks = compile_campaign(spec, store=store)
        results = run_tasks(tasks, jobs=1, store=store)
        assert len(results) == 2 and all(r.cached for r in results)
        # The prerequisite synthesis hit as well: nothing was recomputed.
        assert (store.hits, store.misses) == (3, 0)


# --------------------------------------------------------------------------
# the per-call fingerprint memo: byte-identical to the frozen oracle
# (repro.engine.reference.naive_fingerprint_task), scoped to one call
# --------------------------------------------------------------------------

class _Color(enum.Enum):
    RED = 1
    BLUE = "blue"


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


@dataclasses.dataclass(frozen=True)
class _Node:
    label: str
    child: object


@dataclasses.dataclass(frozen=True)
class _PayloadTask:
    key: object
    first: object
    second: object = None
    seed: int = 0


def _assert_oracle_addresses(tasks, salt=None):
    """Every address through one shared memo (as ``run_tasks`` computes
    them) and through a fresh one equals the oracle's."""
    memo = {}
    for task in tasks:
        expected = naive_fingerprint_task(task, salt=salt)
        assert _fingerprint(task, salt, memo) == expected
        assert fingerprint_task(task, salt=salt) == expected


def _recorded_tasks(monkeypatch, run):
    """Every task ``run()`` submits to the executor (which still runs
    them): the tasks the library really builds."""
    from repro.engine import executor

    seen = []
    real = executor.run_tasks

    def recording(tasks, **kwargs):
        tasks = list(tasks)
        seen.extend(tasks)
        return real(tasks, **kwargs)

    monkeypatch.setattr(executor, "run_tasks", recording)
    run()
    monkeypatch.undo()
    return seen


@pytest.fixture
def task_zoo(tiny_specs, monkeypatch, tmp_path):
    """One list per engine task type, each built the way the library
    builds it."""
    from repro.core.synthesis import synthesize

    core_spec, comm_spec = tiny_specs
    sim = _sim_tasks(3)
    zoo = {
        "SynthesisTask": [
            SynthesisTask(key=f, core_spec=core_spec, comm_spec=comm_spec,
                          config=CONFIG.with_(frequency_mhz=f))
            for f in FREQS
        ],
        "CandidateTask": _recorded_tasks(monkeypatch, lambda: synthesize(
            core_spec, comm_spec, config=CONFIG, jobs=2,
        )),
        "SimulationTask": sim,
        "BatchSimulationTask": [_batch_sim_task(range(3, 6))],
        "FaultyTask": [
            FaultyTask(key=t.key, inner=t, spec=FaultSpec("noop"),
                       state_dir=str(tmp_path), fault_id=f"f{i}")
            for i, t in enumerate(sim[:2])
        ],
    }
    for name, tasks in zoo.items():
        assert tasks and {type(t).__name__ for t in tasks} == {name}
    return zoo


def _sub_tasks(tasks):
    out = []
    for task in tasks:
        expand = getattr(task, "expand_for_store", None)
        out.extend(expand() if expand is not None else [task])
    return out


def _oracle_warmed_store(root, tasks):
    """A store filled under the oracle's addresses, as one warmed by the
    unmemoised code is, each entry holding its own address as payload;
    returns the store and the results ``run_tasks`` must serve from it."""
    store = ResultStore(root)
    expected = []
    for task in tasks:
        expand = getattr(task, "expand_for_store", None)
        subs = expand() if expand is not None else [task]
        fps = tuple(naive_fingerprint_task(s, salt=store.salt) for s in subs)
        for fp in fps:
            store.put(fp, fp)
        expected.append(fps if expand is not None else fps[0])
    return ResultStore(root), expected


@pytest.fixture(scope="module")
def d26_sim_campaign():
    """A compiled d26_media sim campaign: one 16-seed BatchSimulationTask
    per scenario, all sharing one routed Topology."""
    from repro.campaign.spec import CampaignSpec, compile_campaign

    tasks = compile_campaign(CampaignSpec.from_dict({
        "name": "sim-fp", "kind": "sim", "benchmark": "d26_media",
        "scenarios": ["bernoulli", "hotspot:3"], "seeds": list(range(16)),
        "injection_scales": [0.2], "cycles": 600, "warmup": 60,
        "batch": 16, "config": {"switch_count_range": [3, 4]},
    }))
    assert [len(t.seeds) for t in tasks] == [16, 16]
    return tasks


_hashables = st.one_of(
    st.integers(-5, 5), st.text(max_size=3),
    st.tuples(st.integers(0, 2), st.none() | st.integers(0, 2)),
    st.sampled_from(list(_Level)),
)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4),
    st.binary(max_size=4), st.floats(allow_nan=False),
    st.floats(allow_nan=False).map(np.float64),
    st.sampled_from(list(_Color) + list(_Level)),
    st.lists(st.integers(-9, 9), max_size=4).map(np.array),
    st.lists(st.floats(-1, 1), max_size=3).map(
        lambda v: np.array(v, dtype=np.float32)
    ),
)
# Dict keys of one type per dict: the oracle keeps the old insertion-order
# fallback for keys that do not sort.
_payloads = st.recursive(_leaves, lambda children: st.one_of(
    st.tuples(children, children),
    st.lists(children, max_size=3),
    st.dictionaries(st.integers(-5, 5), children, max_size=3),
    st.dictionaries(st.text(max_size=3), children, max_size=3),
    st.frozensets(_hashables, max_size=3),
    st.sets(_hashables, max_size=3),
    st.builds(_Node, st.text(max_size=3), children),
), max_leaves=12)


class TestFingerprintOracle:
    def test_every_task_type_matches_oracle(self, task_zoo):
        for tasks in task_zoo.values():
            _assert_oracle_addresses(_sub_tasks(tasks))
            _assert_oracle_addresses(tasks[:1] * 2, salt="other-salt")

    @pytest.mark.slow
    def test_d26_media_batch_sub_tasks_match_oracle(self, d26_sim_campaign):
        subs = _sub_tasks(d26_sim_campaign)
        assert len(subs) == 32 and len({id(t.topology) for t in subs}) == 1
        _assert_oracle_addresses(subs)

    @settings(max_examples=60, deadline=None)
    @given(
        first=_payloads,
        second=_payloads,
        seeds=st.lists(st.integers(0, 3), min_size=1, max_size=4),
    )
    def test_generated_payloads_match_oracle(self, first, second, seeds):
        tasks = [
            _PayloadTask(key=i, first=first, second=second, seed=seed)
            for i, seed in enumerate(seeds)
        ]
        tasks.append(_PayloadTask(key="swapped", first=second, second=first))
        _assert_oracle_addresses(tasks)

    def test_oracle_warmed_store_serves_every_task(self, task_zoo, tmp_path):
        tasks = [t for group in task_zoo.values() for t in group]
        store, expected = _oracle_warmed_store(tmp_path, tasks)
        served = run_tasks(tasks, jobs=1, store=store)
        assert all(r.cached for r in served)
        assert [r.result for r in served] == expected
        assert store.misses == 0

    @pytest.mark.slow
    def test_oracle_warmed_store_serves_d26_media_campaign(
        self, d26_sim_campaign, tmp_path
    ):
        store, expected = _oracle_warmed_store(tmp_path, d26_sim_campaign)
        served = run_tasks(d26_sim_campaign, jobs=1, store=store)
        assert all(r.cached for r in served)
        assert [r.result for r in served] == expected
        assert store.hits == 32 and store.misses == 0

    def test_unorderable_dict_keys_ignore_insertion_order(self):
        """Dicts whose keys do not sort are ordered by the keys' encoding,
        like sets — not by insertion order."""
        for a, b in [
            ({1: "a", "x": "b"}, {"x": "b", 1: "a"}),
            ({(1, None): 0, (1, 2): 1}, {(1, 2): 1, (1, None): 0}),
        ]:
            assert a == b and list(a) != list(b)
            assert fingerprint_task(_PayloadTask(key=0, first=a)) == \
                fingerprint_task(_PayloadTask(key=0, first=b))
            assert fingerprint_task(_PayloadTask(key=0, first=a)) != \
                fingerprint_task(_PayloadTask(key=0, first=dict(a, y=1)))


class TestFingerprintScope:
    """The memo lives for one ``run_tasks`` call and is keyed by identity:
    each test fails if it outlives the call or is keyed by value."""

    def test_in_place_mutation_between_calls_misses(self, tmp_path):
        topo = contended_topology()
        tasks = [
            SimulationTask(key=seed, topology=topo, seed=seed, cycles=300,
                           warmup=0)
            for seed in range(2)
        ]
        store = ResultStore(tmp_path)
        before = [naive_fingerprint_task(t, salt=store.salt) for t in tasks]
        run_tasks(tasks, jobs=1, store=store)
        topo.links[0].length_mm += 1.0
        after = [naive_fingerprint_task(t, salt=store.salt) for t in tasks]
        assert set(before).isdisjoint(after)
        again = run_tasks(tasks, jobs=1, store=store)
        assert not any(r.cached for r in again)
        assert [
            pickle.dumps(store.get(fp).payload) for fp in after
        ] == _payload_bytes(again)
        assert store.stats().entries == 4

    def test_shared_topology_distinct_seeds_get_distinct_addresses(
        self, tmp_path
    ):
        topo = contended_topology()
        tasks = [
            SimulationTask(key="same", topology=topo, seed=seed, cycles=300,
                           warmup=0)
            for seed in (0, 1)
        ]
        store = ResultStore(tmp_path)
        run_tasks(tasks, jobs=1, store=store)
        fps = {naive_fingerprint_task(t, salt=store.salt) for t in tasks}
        assert len(fps) == 2
        assert all(store.get(fp) is not None for fp in fps)
        assert store.stats().entries == 2

    def test_equal_distinct_topologies_share_one_address(self, tmp_path):
        tasks = [
            SimulationTask(key=i, topology=contended_topology(), seed=0,
                           cycles=300, warmup=0)
            for i in range(2)
        ]
        assert tasks[0].topology is not tasks[1].topology
        store = ResultStore(tmp_path)
        run_tasks(tasks, jobs=1, store=store)
        assert store.stats().entries == 1
        assert store.get(naive_fingerprint_task(tasks[1], salt=store.salt))

    def test_equal_values_with_distinct_encodings_stay_apart(self, tmp_path):
        """``(1,) == (1.0,) == (True,) == (_Level.LOW,)``, but each
        encodes differently: a memo keyed by value would merge them."""
        tasks = [
            _PayloadTask(key=i, first=value)
            for i, value in enumerate([(1,), (1.0,), (True,), (_Level.LOW,)])
        ]
        _assert_oracle_addresses(tasks)
        store, expected = _oracle_warmed_store(tmp_path, tasks)
        served = run_tasks(tasks, jobs=1, store=store)
        assert [r.result for r in served] == expected
        assert len(set(expected)) == 4

