"""Chaos suite: engine failure semantics under deterministic fault injection.

Every recovery path the supervision layer (:mod:`repro.engine.supervise`)
claims is executed here with injected faults (:mod:`repro.engine.faults`):

* the fault matrix — {serial, parallel} x {transient failure, worker
  crash, timeout} x {with store, without} — asserting merge order,
  monotonic progress counts and byte-identical survivor results;
* retries: transient faults absorbed at once, supervision errors never
  retried, attempts and elapsed time accumulated, validation;
* poison-task attribution and the pool-restart budget;
* a result or error that cannot cross the process boundary, failing
  only its own task;
* graceful Ctrl-C with a hung worker pending;
* a killed-then-resumed store-backed campaign merging bit-identically to
  a clean cold run;
* a sweep worker killed halfway through a stage record it writes through
  the store it inherited from the caller.

Cheap :class:`~repro.engine.tasks.SimulationTask` bodies (a few hundred
cycles on a four-core topology) keep every leg fast; the faults, pool
breaks and deadlines are real.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import signal
import time
from dataclasses import dataclass
from typing import Hashable

import pytest

from repro.engine import (
    FaultPlan,
    FaultSpec,
    FaultyTask,
    inject_faults,
    run_tasks,
)
from repro.engine.faults import (
    SITES_ENV,
    TransientFaultError,
    WorkerCrashError,
    arm_sites,
    maybe_fire,
    reset_sites,
    site_activations,
    unwrap_task,
)
from repro.engine import supervise
from repro.engine.store import ResultStore, fingerprint_task
from repro.engine.supervise import (
    Supervision,
    _RemoteTraceback,
    _hard_stop,
    _quarantined_result,
    _timeout_result,
    attach_remote_traceback,
    new_pool,
    pool_context,
)
from repro.engine.tasks import SimulationTask, TaskResult, run_task
from repro.errors import EngineError, TaskQuarantinedError, TaskTimeoutError

from _simtopo import contended_topology

N_TASKS = 6
FAULT_INDEX = 2


def _tasks(n: int = N_TASKS):
    """Cheap, deterministic, mutually distinct engine tasks."""
    topo = contended_topology()
    return [
        SimulationTask(
            key=f"sim-{seed}", topology=topo, seed=seed, cycles=200, warmup=0,
        )
        for seed in range(n)
    ]


@pytest.fixture(scope="module")
def clean_results():
    """Fault-free serial baseline every faulted run must agree with."""
    return run_tasks(_tasks(), jobs=1)


def _payloads(results):
    """Each result's pickle: results are compared one by one, since a
    store-served result shares no sub-objects with its neighbours."""
    return [pickle.dumps(r.result) for r in results]


def _store_entries(store_dir) -> int:
    return ResultStore(store_dir, readonly=True).stats().entries


class TestFaultMatrix:
    """{serial, parallel} x {transient, crash, timeout} x {store, no store}."""

    @pytest.mark.parametrize("with_store", [False, True],
                             ids=["nostore", "store"])
    @pytest.mark.parametrize("kind", ["transient", "crash", "timeout"])
    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "parallel"])
    def test_matrix(self, tmp_path, clean_results, jobs, kind, with_store):
        tasks = _tasks()
        parallel = jobs > 1
        if kind == "transient":
            spec = FaultSpec("transient", times=1)
        elif kind == "crash":
            spec = FaultSpec("crash", times=-1)  # a genuine poison task
        else:
            # Parallel: a hang far past the deadline (killed at ~0.5s).
            # Serial: a short delay — the serial path runs tasks in the
            # caller's process and *cannot* preempt them, so deadlines are
            # documented as unenforced there and the task just finishes.
            spec = FaultSpec(
                "delay", times=-1, delay_s=5.0 if parallel else 0.05
            )
        plan = FaultPlan(
            tmp_path / "faults", {FAULT_INDEX: spec}, count_all=True
        )
        faulty = inject_faults(tasks, plan)
        store = ResultStore(tmp_path / "store") if with_store else None

        progress_calls = []
        results = run_tasks(
            faulty, jobs=jobs, store=store,
            progress=lambda done, total, key: progress_calls.append(
                (done, total, key)
            ),
            raise_errors=False,
            supervision=Supervision(
                retries=2 if kind == "transient" else 0,
                task_timeout_s=0.5 if kind == "timeout" else None,
                on_error="quarantine",
            ),
        )

        # Merge order is submission order, faults or not.
        assert [r.key for r in results] == [t.key for t in tasks]
        # Progress counts are monotonic and contiguous to the total.
        assert [done for done, _t, _k in progress_calls] == list(
            range(1, len(tasks) + 1)
        )
        assert all(total == len(tasks) for _d, total, _k in progress_calls)

        # Expected casualty (if any) and its structured error.
        fault_result = results[FAULT_INDEX]
        if kind == "transient":
            assert fault_result.error is None
            if not fault_result.cached:
                assert fault_result.attempts == 2
            survivors = set(range(len(tasks)))
        elif kind == "crash" and not parallel:
            # Serial path: the harness raises instead of killing the runner.
            assert isinstance(fault_result.error, WorkerCrashError)
            survivors = set(range(len(tasks))) - {FAULT_INDEX}
        elif kind == "crash":
            assert isinstance(fault_result.error, TaskQuarantinedError)
            assert fault_result.error.reason == "crash"
            assert fault_result.attempts == 2  # pool attempt + solo attempt
            survivors = set(range(len(tasks))) - {FAULT_INDEX}
        elif kind == "timeout" and not parallel:
            assert fault_result.error is None  # deadlines need a pool
            survivors = set(range(len(tasks)))
        else:
            assert isinstance(fault_result.error, TaskTimeoutError)
            assert fault_result.error.timeout_s == 0.5
            survivors = set(range(len(tasks))) - {FAULT_INDEX}

        # Every survivor is byte-identical to the fault-free baseline.
        for i in survivors:
            assert results[i].error is None
            assert pickle.dumps(results[i].result) == pickle.dumps(
                clean_results[i].result
            )

        # No unfaulted task re-runs on the deterministic paths. After a
        # pool break / kill a bystander's first attempt may have died
        # mid-run and been legitimately re-attempted, so the parallel
        # crash/timeout legs only bound the count from below.
        for i in survivors - {FAULT_INDEX}:
            if parallel and kind in ("crash", "timeout"):
                assert plan.activations(i) >= 1
            else:
                assert plan.activations(i) == 1

        if store is not None:
            # Failed / timed-out / quarantined results are never cached.
            ok = sum(1 for r in results if r.error is None)
            assert _store_entries(tmp_path / "store") == ok
            # A clean rerun against the same store serves every survivor
            # from disk and merges identically to the fault-free baseline.
            rerun = run_tasks(tasks, jobs=1, store=store)
            assert [r.cached for r in rerun] == [
                i in survivors for i in range(len(tasks))
            ]
            assert _payloads(rerun) == _payloads(clean_results)


def _scripted_attempts(monkeypatch, outcomes):
    """Make each task attempt return the next scripted ``TaskResult``;
    returns the list of attempts made."""
    import repro.engine.tasks as tasks_mod

    calls = []

    def attempt(task):
        calls.append(task.key)
        return outcomes[len(calls) - 1]

    monkeypatch.setattr(tasks_mod, "_attempt_task", attempt)
    return calls


class TestRetryPolicy:
    """Per-task retries (``Supervision.retries``): immediate, in the
    worker, never for supervision errors."""

    def test_transient_fault_retried_at_once(self, tmp_path):
        plan = FaultPlan(tmp_path, {0: FaultSpec("transient", times=2)})
        [task] = inject_faults(_tasks(1), plan)
        result = run_task(task, 2)
        assert result.error is None
        assert result.attempts == 3
        assert plan.activations(0) == 3

    def test_retries_exhausted_keep_the_last_error(self, tmp_path):
        plan = FaultPlan(tmp_path, {0: FaultSpec("transient", times=3)})
        [task] = inject_faults(_tasks(1), plan)
        result = run_task(task, 1)
        assert isinstance(result.error, TransientFaultError)
        assert result.attempts == 2
        assert plan.activations(0) == 2

    def test_attempts_and_elapsed_accumulate(self, monkeypatch):
        calls = _scripted_attempts(monkeypatch, [
            TaskResult(key="k", error=ValueError("1"), elapsed_s=1.0),
            TaskResult(key="k", error=ValueError("2"), elapsed_s=2.0),
            TaskResult(key="k", result="ok", elapsed_s=0.5),
        ])
        [task] = _tasks(1)
        result = run_task(task, 5)
        assert len(calls) == 3  # stops at the first success
        assert result.result == "ok"
        assert result.attempts == 3
        assert result.elapsed_s == pytest.approx(3.5)

    def test_supervision_errors_never_retried(self, monkeypatch):
        [task] = _tasks(1)
        for error in (TaskTimeoutError("t"), TaskQuarantinedError("q")):
            calls = _scripted_attempts(
                monkeypatch, [TaskResult(key="k", error=error)] * 4
            )
            result = run_task(task, 3)
            assert result.error is error
            assert result.attempts == 1
            assert len(calls) == 1

    def test_validation(self):
        with pytest.raises(EngineError, match="retries"):
            Supervision(retries=-1)

    def test_run_tasks_knob_validation(self):
        # The supervision knobs of run_tasks validate on construction.
        with pytest.raises(EngineError, match="on_error"):
            Supervision(on_error="explode")
        with pytest.raises(EngineError, match="task_timeout_s"):
            Supervision(task_timeout_s=0.0)


class TestFaultPlan:
    def test_seeded_plans_are_reproducible(self, tmp_path):
        a = FaultPlan.seeded(tmp_path / "a", 50, seed=7, rate=0.3)
        b = FaultPlan.seeded(tmp_path / "b", 50, seed=7, rate=0.3)
        c = FaultPlan.seeded(tmp_path / "c", 50, seed=8, rate=0.3)
        assert a.faults == b.faults
        assert a.faults != c.faults
        assert 0 < len(a.faults) < 50

    def test_wrap_preserves_keys_and_fingerprints(self, tmp_path):
        tasks = _tasks(3)
        plan = FaultPlan(tmp_path, {1: FaultSpec("transient")})
        wrapped = inject_faults(tasks, plan)
        assert isinstance(wrapped[1], FaultyTask)
        assert wrapped[0] is tasks[0] and wrapped[2] is tasks[2]
        assert [w.key for w in wrapped] == [t.key for t in tasks]
        # The wrapper shares the wrapped task's content address, so a
        # fault-injected campaign shares checkpoints with a clean one.
        assert fingerprint_task(wrapped[1]) == fingerprint_task(tasks[1])
        assert unwrap_task(wrapped[1]) is tasks[1]
        assert unwrap_task(tasks[0]) is tasks[0]

    def test_reset_rearms_counters(self, tmp_path):
        plan = FaultPlan(tmp_path, {0: FaultSpec("transient", times=1)})
        [task] = inject_faults(_tasks(1), plan)
        run_task(task, 1)
        assert plan.activations(0) == 2
        plan.reset()
        assert plan.activations(0) == 0

    def test_validation(self, tmp_path):
        with pytest.raises(EngineError, match="kind"):
            FaultSpec("meltdown")
        with pytest.raises(EngineError, match="times"):
            FaultSpec("transient", times=-2)
        with pytest.raises(EngineError, match="delay_s"):
            FaultSpec("delay", delay_s=-1.0)
        with pytest.raises(EngineError, match="index"):
            FaultPlan(tmp_path, {-1: FaultSpec("transient")})
        with pytest.raises(EngineError, match="FaultSpec"):
            FaultPlan(tmp_path, {0: "crash"})
        with pytest.raises(EngineError, match="rate"):
            FaultPlan.seeded(tmp_path, 10, seed=0, rate=1.5)


class TestQuarantine:
    def test_on_error_raise_surfaces_quarantine(self, tmp_path):
        plan = FaultPlan(tmp_path, {1: FaultSpec("crash", times=-1)})
        faulty = inject_faults(_tasks(4), plan)
        with pytest.raises(TaskQuarantinedError) as excinfo:
            run_tasks(faulty, jobs=2)
        assert excinfo.value.key == "sim-1"
        assert excinfo.value.attempts == 2
        assert excinfo.value.reason == "crash"

    def test_on_error_raise_surfaces_timeout(self, tmp_path):
        plan = FaultPlan(
            tmp_path, {1: FaultSpec("delay", times=-1, delay_s=5.0)}
        )
        faulty = inject_faults(_tasks(4), plan)
        with pytest.raises(TaskTimeoutError) as excinfo:
            run_tasks(
                faulty, jobs=2, supervision=Supervision(task_timeout_s=0.5)
            )
        assert excinfo.value.key == "sim-1"

    def test_pool_restart_budget_exhaustion(self, tmp_path, monkeypatch):
        # Two persistent crashers with a zero-restart budget: the first
        # break spends the (empty) budget and everything still pending is
        # quarantined as budget-exhausted rather than waited on. Exactly
        # which tasks completed before the break is timing-dependent, so
        # the assertions are structural.
        plan = FaultPlan(tmp_path, {
            0: FaultSpec("crash", times=-1),
            3: FaultSpec("crash", times=-1),
        })
        faulty = inject_faults(_tasks(), plan)
        monkeypatch.setattr(supervise, "MAX_POOL_RESTARTS", 0)
        results = run_tasks(
            faulty, jobs=2, raise_errors=False,
            supervision=Supervision(on_error="quarantine"),
        )
        assert [r.key for r in results] == [t.key for t in _tasks()]
        errors = [r.error for r in results if r.error is not None]
        assert errors, "at least the first crasher must be quarantined"
        assert all(isinstance(e, TaskQuarantinedError) for e in errors)
        reasons = {e.reason for e in errors}
        assert reasons <= {"crash", "pool restart budget exhausted"}

    def test_supervision_gate_semantics(self):
        sup = Supervision(on_error="quarantine")
        assert not sup.should_raise(TaskTimeoutError("t"))
        assert not sup.should_raise(TaskQuarantinedError("q"))
        assert sup.should_raise(ValueError("ordinary errors still raise"))
        default = Supervision()
        assert default.should_raise(TaskTimeoutError("t"))


class TestRemoteTraceback:
    def test_reraised_error_chains_worker_traceback(self, tmp_path):
        plan = FaultPlan(tmp_path, {1: FaultSpec("transient", times=-1)})
        faulty = inject_faults(_tasks(4), plan)
        with pytest.raises(TransientFaultError) as excinfo:
            run_tasks(faulty, jobs=2)
        cause = excinfo.value.__cause__
        assert cause is not None
        # The chained cause carries the worker-side raise site.
        assert "TransientFaultError" in str(cause)
        assert "activate_fault" in str(cause)

    def test_result_records_traceback_text(self, tmp_path):
        plan = FaultPlan(tmp_path, {1: FaultSpec("transient", times=-1)})
        faulty = inject_faults(_tasks(4), plan)
        results = run_tasks(faulty, jobs=2, raise_errors=False)
        failed = results[1]
        assert isinstance(failed.error, TransientFaultError)
        assert failed.traceback is not None
        assert "TransientFaultError" in failed.traceback


def _unpickle_fails():
    raise ValueError("refuses to unpickle")


class _DecodesBadly:
    """Pickles in the worker; unpickling it in the parent raises."""

    def __reduce__(self):
        return _unpickle_fails, ()


def _result_body():
    return lambda: None  # a local object: cannot be pickled


def _error_body():
    class LocalError(Exception):
        pass

    raise LocalError("an unpicklable error")


def _ordinary_error_body():
    raise ValueError("an ordinary task error")


def _poison_bodies(monkeypatch, bodies):
    """Run ``bodies[key]`` in place of the body of the task keyed ``key``,
    patched before the pool forks so workers inherit it."""
    import repro.engine.tasks as tasks_mod

    timed = tasks_mod._timed_task

    def patched(key, fn):
        return timed(key, bodies.get(key, fn))

    monkeypatch.setattr(tasks_mod, "_timed_task", patched)


class TestUnshippableResults:
    """A result or error that cannot cross the process boundary fails its
    own task slot with an ``EngineError``; the pool and the other tasks
    run on."""

    CASES = {
        "result": (_result_body, "its result cannot be pickled",
                   "run_task_pickled"),
        "error": (_error_body, "its error (", "an unpicklable error"),
        "decode": (_DecodesBadly, "cannot be unpickled", "refuses to"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_quarantine_keeps_the_other_results(
        self, tmp_path, monkeypatch, clean_results, case
    ):
        body, message, trace = self.CASES[case]
        _poison_bodies(monkeypatch, {"sim-1": body})
        store = ResultStore(tmp_path / "store")
        results = run_tasks(
            _tasks(3), jobs=2, store=store, raise_errors=False,
            supervision=Supervision(on_error="quarantine"),
        )
        assert [r.key for r in results] == ["sim-0", "sim-1", "sim-2"]
        failed = results[1]
        assert type(failed.error) is EngineError
        assert "'sim-1'" in str(failed.error)
        assert message in str(failed.error)
        assert failed.result is None
        assert trace in failed.traceback
        for i in (0, 2):
            assert results[i].error is None
            assert pickle.dumps(results[i].result) == pickle.dumps(
                clean_results[i].result
            )
        # The failure is not cached; the survivors are.
        assert _store_entries(tmp_path / "store") == 2

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_first_failure_in_task_order_raises(self, monkeypatch, case):
        """The unshippable task 1 raises, not the ordinary failure of
        task 2, whichever finished first."""
        body, message, trace = self.CASES[case]
        _poison_bodies(
            monkeypatch, {"sim-1": body, "sim-2": _ordinary_error_body}
        )
        with pytest.raises(EngineError, match="'sim-1'") as excinfo:
            run_tasks(_tasks(3), jobs=2)
        assert message in str(excinfo.value)
        assert trace in str(excinfo.value.__cause__)


class TestSuperviseInternals:
    def test_attach_remote_traceback_chains_once(self):
        err = ValueError("x")
        out = attach_remote_traceback(err, "worker raise site")
        assert out is err
        assert isinstance(err.__cause__, _RemoteTraceback)
        assert "worker raise site" in str(err.__cause__)
        # Already-chained and locally-raised errors are left untouched.
        cause = err.__cause__
        attach_remote_traceback(err, "other text")
        assert err.__cause__ is cause
        live = ValueError("y")
        try:
            raise live
        except ValueError:
            pass
        attach_remote_traceback(live, "tb")
        assert live.__cause__ is None
        bare = ValueError("z")
        attach_remote_traceback(bare, None)
        assert bare.__cause__ is None

    def test_structured_supervision_results(self):
        [task] = _tasks(1)
        timed_out = _timeout_result(task, 1.5)
        assert isinstance(timed_out.error, TaskTimeoutError)
        assert timed_out.error.key == task.key
        assert timed_out.error.timeout_s == 1.5
        quarantined = _quarantined_result(task, attempts=2, reason="crash")
        assert isinstance(quarantined.error, TaskQuarantinedError)
        assert quarantined.attempts == 2
        assert "2 attempts" in str(quarantined.error)
        single = _quarantined_result(task, attempts=1, reason="crash")
        assert "1 attempt" in str(single.error)

    def test_pool_context_is_usable(self):
        ctx = pool_context()
        assert ctx.get_start_method() in ("fork", "spawn", "forkserver")

    def test_pool_workers_leave_what_they_inherit_to_no_collection(self):
        """A pool worker starts with ``gc.freeze``: a collection there
        scans only what its tasks allocate."""
        import gc

        pool = new_pool(1)
        try:
            assert pool.submit(gc.get_freeze_count).result() > 0
        finally:
            _hard_stop(pool)
        assert gc.get_freeze_count() == 0

    def test_hard_stop_is_idempotent(self):
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=1, mp_context=pool_context())
        assert pool.submit(int, "7").result() == 7
        _hard_stop(pool)
        _hard_stop(pool)  # tolerates an already-stopped pool

    def test_submit_to_a_broken_pool_keeps_the_task(self, monkeypatch):
        """A worker can die between a harvest and the next submit, which
        then raises: the task being submitted must stay pending for the
        regenerated pool, not vanish from the results."""
        from concurrent import futures
        from concurrent.futures.process import BrokenProcessPool

        pools = []

        class InlinePool:
            """Runs each task at submit; the first pool is broken by the
            time of its second submit."""

            def __init__(self, max_workers, mp_context, initializer=None):
                self.submits = 0
                self.breaks = not pools
                pools.append(self)

            def submit(self, fn, *args):
                self.submits += 1
                if self.breaks and self.submits == 2:
                    raise BrokenProcessPool("a worker died")
                future = futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(futures, "ProcessPoolExecutor", InlinePool)
        noted = {}
        assert supervise.run_supervised_pool(
            _tasks(3), 2, Supervision(), noted.__setitem__
        )
        assert len(pools) == 2
        assert sorted(noted) == [0, 1, 2]
        assert all(result.error is None for result in noted.values())

    def test_noop_fault_counts_without_misbehaving(self, tmp_path):
        plan = FaultPlan(tmp_path, {0: FaultSpec("noop", times=-1)})
        [task] = inject_faults(_tasks(1), plan)
        result = run_task(task)
        assert result.error is None
        assert task.activations() == 1
        run_task(task)
        assert task.activations() == 2


class TestFaultSites:
    """Named fault sites: the orchestrator-side (service-level) chaos
    hooks. Crash kinds genuinely ``os._exit`` the armed process, so the
    subprocess legs live in the journal/service chaos suites; everything
    else — arming, skip windows, counters, disarming — runs in-process
    here."""

    def test_unarmed_process_never_fires(self, monkeypatch, tmp_path):
        monkeypatch.delenv(SITES_ENV, raising=False)
        maybe_fire("journal-write")  # no env: a no-op, not an error
        # Armed directory, but this site was never armed: still a no-op,
        # and the counter does not even tick.
        monkeypatch.setenv(
            SITES_ENV,
            arm_sites(tmp_path, {"service-batch": FaultSpec("noop")})
            [SITES_ENV],
        )
        maybe_fire("journal-write")
        assert site_activations(tmp_path, "journal-write") == 0

    def test_skip_opens_the_fault_window_late(self, monkeypatch, tmp_path):
        # skip=1, times=2: pass, fail, fail, pass — the mechanism chaos
        # tests use to kill a service at its k-th journal write.
        monkeypatch.setenv(SITES_ENV, arm_sites(tmp_path, {
            "journal-write": FaultSpec("transient", times=2, skip=1),
        })[SITES_ENV])
        maybe_fire("journal-write")
        for _ in range(2):
            with pytest.raises(TransientFaultError):
                maybe_fire("journal-write")
        maybe_fire("journal-write")
        assert site_activations(tmp_path, "journal-write") == 4

    def test_delay_and_noop_sites(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SITES_ENV, arm_sites(tmp_path, {
            "service-batch": FaultSpec("delay", times=1, delay_s=0.0),
            "service-between-jobs": FaultSpec("noop", times=-1),
        })[SITES_ENV])
        maybe_fire("service-batch")  # delay elapses, nothing raises
        maybe_fire("service-between-jobs")
        maybe_fire("service-between-jobs")
        assert site_activations(tmp_path, "service-batch") == 1
        assert site_activations(tmp_path, "service-between-jobs") == 2

    def test_reset_disarms_and_forgets(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SITES_ENV, arm_sites(tmp_path, {
            "journal-write": FaultSpec("transient", times=-1),
        })[SITES_ENV])
        with pytest.raises(TransientFaultError):
            maybe_fire("journal-write")
        reset_sites(tmp_path)
        maybe_fire("journal-write")  # disarmed: fires nothing
        assert site_activations(tmp_path, "journal-write") == 0

    def test_rearming_overwrites_atomically(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SITES_ENV, arm_sites(tmp_path, {
            "journal-write": FaultSpec("transient", times=-1),
        })[SITES_ENV])
        arm_sites(tmp_path, {"journal-write": FaultSpec("noop")})
        maybe_fire("journal-write")  # now a noop; counter continues
        assert site_activations(tmp_path, "journal-write") == 1

    def test_torn_arming_file_never_faults(self, monkeypatch, tmp_path):
        # A half-written .site file must fail safe: no fault, no count.
        monkeypatch.setenv(SITES_ENV, str(tmp_path))
        (tmp_path / "journal-write.site").write_text("transient\n")
        maybe_fire("journal-write")
        assert site_activations(tmp_path, "journal-write") == 0

    def test_arm_sites_validation(self, tmp_path):
        with pytest.raises(EngineError, match="FaultSpec"):
            arm_sites(tmp_path, {"journal-write": "crash"})
        with pytest.raises(EngineError, match="skip"):
            FaultSpec("crash", skip=-1)

    def test_task_fault_honours_skip(self, tmp_path):
        # The same skip window on a task-level fault: first attempt
        # passes, second fails, third passes.
        plan = FaultPlan(
            tmp_path, {0: FaultSpec("transient", times=1, skip=1)}
        )
        [task] = inject_faults(_tasks(1), plan)
        assert run_task(task).error is None
        assert isinstance(run_task(task).error, TransientFaultError)
        assert run_task(task).error is None
        assert plan.activations(0) == 3


class TestSupervisedSynthesisSweep:
    def test_injected_crash_quarantines_only_the_poison_task(self, tmp_path):
        # On a real synthesis sweep: arming supervision fault-free changes
        # no results, and one task whose worker crashes on every attempt
        # is quarantined alone while every survivor matches the clean run.
        from repro.bench.synthetic import synthetic_benchmark
        from repro.core.config import SynthesisConfig
        from repro.engine import ParameterGrid, build_tasks
        from repro.noc.export import design_point_to_dict

        def points(results):
            return [[design_point_to_dict(p) for p in r.result.points]
                    for r in results]

        bench = synthetic_benchmark(
            10, "random", num_layers=2, seed=11, floorplan_moves=300
        )
        tasks = build_tasks(
            bench.core_spec_3d, bench.comm_spec,
            ParameterGrid(frequencies_mhz=(400.0, 500.0)),
            SynthesisConfig(max_ill=10, switch_count_range=(2, 4)),
        )
        clean = run_tasks(tasks, jobs=1)
        armed = run_tasks(
            tasks, jobs=2, supervision=Supervision(
                retries=2, task_timeout_s=300.0,
                on_error="quarantine",
            ),
        )
        assert points(armed) == points(clean)

        poison = len(tasks) // 2
        plan = FaultPlan(tmp_path, {poison: FaultSpec("crash", times=100)})
        recovered = run_tasks(
            inject_faults(tasks, plan), jobs=2, supervision=Supervision(
                task_timeout_s=300.0, on_error="quarantine"
            ),
        )
        failed = [r for r in recovered if r.error is not None]
        assert [r.key for r in failed] == [tasks[poison].key]
        assert isinstance(failed[0].error, TaskQuarantinedError)
        assert failed[0].attempts == 2  # pool attempt + solo attempt
        survivors = [r for i, r in enumerate(recovered) if i != poison]
        assert points(survivors) == points(
            [r for i, r in enumerate(clean) if i != poison]
        )


class _Interrupter:
    """Progress callback raising once a completion threshold is reached."""

    def __init__(self, at: int, exc: type):
        self.at = at
        self.exc = exc

    def __call__(self, done, _total, _key):
        if done >= self.at:
            raise self.exc()


class TestGracefulInterrupt:
    def test_keyboard_interrupt_is_prompt_and_checkpointed(self, tmp_path):
        # A 30s hang is pending when the interrupt fires: the run must not
        # wait it out, must keep completed checkpoints on disk, and must
        # not leave pool workers behind.
        plan = FaultPlan(
            tmp_path / "faults",
            {N_TASKS - 1: FaultSpec("delay", times=-1, delay_s=30.0)},
        )
        faulty = inject_faults(_tasks(), plan)
        store = ResultStore(tmp_path / "store")
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_tasks(
                faulty, jobs=2, store=store,
                progress=_Interrupter(2, KeyboardInterrupt),
            )
        assert time.monotonic() - start < 10.0
        assert _store_entries(tmp_path / "store") >= 2
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() and \
                time.monotonic() < deadline:
            time.sleep(0.05)
        assert not multiprocessing.active_children()

    def test_interrupted_campaign_resumes_from_store(
        self, tmp_path, clean_results
    ):
        plan = FaultPlan(
            tmp_path / "faults",
            {N_TASKS - 1: FaultSpec("delay", times=-1, delay_s=30.0)},
        )
        store = ResultStore(tmp_path / "store")
        with pytest.raises(KeyboardInterrupt):
            run_tasks(
                inject_faults(_tasks(), plan), jobs=2, store=store,
                progress=_Interrupter(2, KeyboardInterrupt),
            )
        # Resume fault-free: checkpointed points are served from disk and
        # the merged campaign equals the clean cold run byte for byte.
        resumed = run_tasks(_tasks(), jobs=1, store=store)
        assert any(r.cached for r in resumed)
        assert _payloads(resumed) == _payloads(clean_results)


class TestKilledAndResumed:
    def test_faulted_resume_merges_identically_to_cold_run(
        self, tmp_path, clean_results
    ):
        # Kill a store-backed campaign mid-flight *with faults injected*,
        # resume it with the same faults, and require the final merge to be
        # bit-identical to a fault-free cold run: the acceptance criterion
        # of the fault-injection harness.
        plan = FaultPlan(
            tmp_path / "faults",
            {FAULT_INDEX: FaultSpec("transient", times=1)},
        )
        store = ResultStore(tmp_path / "store")
        sup = Supervision(retries=2)
        with pytest.raises(RuntimeError):
            run_tasks(
                inject_faults(_tasks(), plan), jobs=2, store=store,
                supervision=sup, progress=_Interrupter(3, RuntimeError),
            )
        resumed = run_tasks(
            inject_faults(_tasks(), plan), jobs=2, store=store,
            supervision=sup,
        )
        assert _payloads(resumed) == _payloads(clean_results)
        # The activation counter survives the kill, so the fault fired on
        # exactly one attempt across both runs (a reset would re-fire it on
        # resume). Attempt counts: fail + retry-success in whichever run(s)
        # executed the task, plus at most one recompute when the first
        # run's success was killed before its checkpoint was written.
        assert 2 <= plan.activations(FAULT_INDEX) <= 3


@dataclass(frozen=True)
class _KilledMidFrame:
    """A synthesis task whose worker is SIGKILLed halfway through the
    frame of its ``after + 1``-th store write: the frame is torn in the
    pack the worker appends to. Fingerprints as the wrapped task."""

    key: Hashable
    inner: object
    after: int

    __fingerprint_delegate__ = "inner"

    def activate_fault(self) -> None:
        assert multiprocessing.current_process().name != "MainProcess"
        writev, writes = os.writev, []

        def torn(fd, buffers):
            writes.append(fd)
            if len(writes) > self.after:
                data = b"".join(buffers)
                os.write(fd, data[: len(data) // 2])
                os.kill(os.getpid(), signal.SIGKILL)
            return writev(fd, buffers)

        os.writev = torn  # this worker dies at the torn write


class TestSweepWorkerKilledMidFrame:
    def test_torn_stage_record_reads_as_a_miss(self, tmp_path, capsys):
        """A sweep worker writes stage records through the caller's store
        (inherited over fork) and is SIGKILLed mid-frame, on every
        attempt, so its point is quarantined. The torn frame never reads
        as a record, a fault-free rerun replays the records written
        before it and gives the clean run's points, and ``cache verify
        --repair`` leaves the store clean."""
        from repro.bench.synthetic import synthetic_benchmark
        from repro.cli import main
        from repro.core.config import SynthesisConfig
        from repro.engine import ParameterGrid, build_tasks
        from repro.engine.store import _FRAME, _walk_pack

        bench = synthetic_benchmark(
            10, "random", num_layers=2, seed=11, floorplan_moves=300
        )
        root = tmp_path / "store"
        # Two alphas: the points share no stage record.
        tasks = build_tasks(
            bench.core_spec_3d, bench.comm_spec,
            ParameterGrid(alphas=(0.3, 0.9)),
            SynthesisConfig(max_ill=10, switch_count_range=(2, 4)),
            stage_cache_dir=str(root),
        )
        def points(results):
            return [[pickle.dumps(p) for p in r.result.points]
                    for r in results]

        clean = points(run_tasks([
            dataclasses.replace(task, stage_cache_dir=None) for task in tasks
        ], jobs=1))

        store = ResultStore(root)
        faulty = [_KilledMidFrame(tasks[0].key, tasks[0], after=5),
                  tasks[1]]
        first = run_tasks(faulty, jobs=2, store=store, supervision=Supervision(
            task_timeout_s=300.0, on_error="quarantine",
        ))
        assert isinstance(first[0].error, TaskQuarantinedError)
        assert points(first[1:]) == clean[1:]

        torn = []
        for pack in sorted((root / "packs").glob("*.pack")):
            for offset, _fp, frame, problem in _walk_pack(pack):
                if problem is not None:
                    assert problem == "torn frame"
                    torn.append((pack, offset, frame[:_FRAME.size]))
        # The pool attempt and the solo attempt each tore a frame, in a
        # pack of its own. The solo attempt replayed the five records
        # written before the first tear, and wrote that record whole.
        assert len(torn) == 2 and torn[0][0] != torn[1][0]
        for pack, offset, head in torn:
            fingerprint = head[:32].hex()
            if store.indexed(fingerprint, refresh=True):
                where = store._packs.entries[fingerprint][:2]
                assert where != (int(pack.stem), offset)
                assert store.get(fingerprint, counted=False) is not None
        # What the last attempt tore was never written whole: a miss.
        fingerprint = torn[1][2][:32].hex()
        assert not store.indexed(fingerprint, refresh=True)
        assert store.get(fingerprint, counted=False) is None
        assert store.stats().by_task_type["SynthesisTask"] == 1

        hits = store.hits
        rerun = run_tasks(tasks, jobs=2, store=store)
        assert points(rerun) == clean
        assert [r.cached for r in rerun] == [False, True]
        assert store.hits == hits + 1
        assert sum(row["hits"] for row in rerun[0].stage_cache.values()) > 5

        assert main(["cache", "verify", "--cache-dir", str(root)]) == 1
        assert main(["cache", "verify", "--repair",
                     "--cache-dir", str(root)]) == 0
        assert main(["cache", "verify", "--cache-dir", str(root)]) == 0
        assert "2 removed" in capsys.readouterr().out
