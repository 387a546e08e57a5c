"""Chaos suite: engine failure semantics under deterministic fault injection.

Every recovery path the supervision layer (:mod:`repro.engine.supervise`)
claims is executed here with injected faults (:mod:`repro.engine.faults`):

* the fault matrix — {serial, parallel} x {transient failure, worker
  crash, timeout} x {with store, without} — asserting merge order,
  monotonic progress counts and byte-identical survivor results;
* retry policy schedules, filtering and validation;
* poison-task attribution (including innocent bystanders in a chunk);
* graceful Ctrl-C with a hung worker pending;
* a killed-then-resumed store-backed campaign merging bit-identically to
  a clean cold run.

Cheap :class:`~repro.engine.tasks.FloorplanTask` bodies (a few dozen
annealing moves) keep every leg fast; the faults, pool breaks and
deadlines are real.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from pathlib import Path

import pytest

from repro.engine import (
    FaultPlan,
    FaultSpec,
    FaultyTask,
    RetryPolicy,
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
from repro.engine.store import ResultStore, fingerprint_task
from repro.engine.supervise import (
    Supervision,
    _RemoteTraceback,
    _hard_stop,
    _quarantined_result,
    _timeout_result,
    attach_remote_traceback,
    pool_context,
)
from repro.engine.tasks import FloorplanTask, run_task
from repro.errors import EngineError, TaskQuarantinedError, TaskTimeoutError
from repro.floorplan.sequence_pair import SequencePair

N_TASKS = 6
FAULT_INDEX = 2


def _tasks(n: int = N_TASKS, moves: int = 40):
    """Cheap, deterministic, mutually distinct engine tasks."""
    sp = SequencePair.grid(4)
    return [
        FloorplanTask(
            key=f"restart-{i}", widths=(2.0, 3.0, 1.5, 2.5),
            heights=(1.0, 2.0, 1.2, 0.8), seed=9, moves=moves,
            initial_sp=sp, restart=i,
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def clean_results():
    """Fault-free serial baseline every faulted run must agree with."""
    return run_tasks(_tasks(), jobs=1)


def _store_entries(store_dir) -> int:
    return len(list(Path(store_dir).rglob("*.pkl")))


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
            raise_errors=False, on_error="quarantine",
            retry=RetryPolicy(max_retries=2) if kind == "transient" else None,
            task_timeout_s=0.5 if kind == "timeout" else None,
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
            assert pickle.dumps([r.result for r in rerun]) == pickle.dumps(
                [r.result for r in clean_results]
            )


class TestRetryPolicy:
    def test_deterministic_backoff_schedule(self):
        policy = RetryPolicy(
            max_retries=5, backoff_s=0.5, backoff_factor=3.0,
            max_backoff_s=2.0,
        )
        assert [policy.delay_s(n) for n in (1, 2, 3, 4)] == [
            0.5, 1.5, 2.0, 2.0  # capped at max_backoff_s
        ]
        assert RetryPolicy(backoff_s=0.0).delay_s(1) == 0.0

    def test_injected_sleep_records_backoff(self, tmp_path):
        recorded = []
        policy = RetryPolicy(
            max_retries=2, backoff_s=0.25, backoff_factor=2.0,
            sleep=recorded.append,
        )
        plan = FaultPlan(
            tmp_path, {0: FaultSpec("transient", times=2)}
        )
        [task] = inject_faults(_tasks(1), plan)
        result = run_task(task, policy)
        assert result.error is None
        assert result.attempts == 3
        assert recorded == [0.25, 0.5]

    def test_retry_on_filters_error_classes(self, tmp_path):
        policy = RetryPolicy(max_retries=3, retry_on=(OSError,))
        plan = FaultPlan(tmp_path, {0: FaultSpec("transient", times=1)})
        [task] = inject_faults(_tasks(1), plan)
        result = run_task(task, policy)
        assert isinstance(result.error, TransientFaultError)
        assert result.attempts == 1  # not an OSError: no retry spent

    def test_supervision_errors_never_retried(self):
        policy = RetryPolicy(max_retries=3)
        assert policy.should_retry(ValueError("x"))
        assert not policy.should_retry(TaskTimeoutError("t"))
        assert not policy.should_retry(TaskQuarantinedError("q"))

    def test_validation(self):
        with pytest.raises(EngineError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(EngineError, match="backoff_s"):
            RetryPolicy(backoff_s=-0.1)
        with pytest.raises(EngineError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(EngineError, match="max_backoff_s"):
            RetryPolicy(max_backoff_s=-1.0)

    def test_run_tasks_knob_validation(self):
        tasks = _tasks(2)
        with pytest.raises(EngineError, match="on_error"):
            run_tasks(tasks, on_error="explode")
        with pytest.raises(EngineError, match="task_timeout_s"):
            run_tasks(tasks, task_timeout_s=0.0)
        with pytest.raises(EngineError, match="max_pool_restarts"):
            run_tasks(tasks, max_pool_restarts=-1)


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
        run_task(task, RetryPolicy(max_retries=1))
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
        assert excinfo.value.key == "restart-1"
        assert excinfo.value.attempts == 2
        assert excinfo.value.reason == "crash"

    def test_on_error_raise_surfaces_timeout(self, tmp_path):
        plan = FaultPlan(
            tmp_path, {1: FaultSpec("delay", times=-1, delay_s=5.0)}
        )
        faulty = inject_faults(_tasks(4), plan)
        with pytest.raises(TaskTimeoutError) as excinfo:
            run_tasks(faulty, jobs=2, task_timeout_s=0.5)
        assert excinfo.value.key == "restart-1"

    def test_chunk_bystander_acquitted(self, tmp_path, clean_results):
        # chunk_size=2 puts an innocent task in the crashed chunk: the
        # attribution re-run must convict only the crasher and keep the
        # bystander's solo result.
        plan = FaultPlan(tmp_path, {0: FaultSpec("crash", times=-1)})
        faulty = inject_faults(_tasks(), plan)
        results = run_tasks(
            faulty, jobs=2, chunk_size=2, on_error="quarantine",
            raise_errors=False,
        )
        assert isinstance(results[0].error, TaskQuarantinedError)
        quarantined = [r for r in results if r.error is not None]
        assert len(quarantined) == 1
        bystander = results[1]  # shared the crasher's chunk
        assert bystander.error is None
        assert bystander.attempts == 2  # crashed pool attempt + solo run
        assert pickle.dumps(bystander.result) == pickle.dumps(
            clean_results[1].result
        )

    def test_pool_restart_budget_exhaustion(self, tmp_path):
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
        results = run_tasks(
            faulty, jobs=2, on_error="quarantine", raise_errors=False,
            max_pool_restarts=0,
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

    def test_hard_stop_is_idempotent(self):
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=1, mp_context=pool_context())
        assert pool.submit(int, "7").result() == 7
        _hard_stop(pool)
        _hard_stop(pool)  # tolerates an already-stopped pool

    def test_retry_wait_uses_real_sleep_by_default(self):
        RetryPolicy(backoff_s=0.001).wait(1)  # must not raise
        RetryPolicy(backoff_s=0.0).wait(1)  # zero delay: no sleep at all

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
            arm_sites(tmp_path, {"store-evict": FaultSpec("noop")})
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
            tasks, jobs=2, retry=RetryPolicy(max_retries=2),
            task_timeout_s=300.0, on_error="quarantine",
        )
        assert points(armed) == points(clean)

        poison = len(tasks) // 2
        plan = FaultPlan(tmp_path, {poison: FaultSpec("crash", times=100)})
        recovered = run_tasks(
            inject_faults(tasks, plan), jobs=2, task_timeout_s=300.0,
            on_error="quarantine",
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
        assert pickle.dumps([r.result for r in resumed]) == pickle.dumps(
            [r.result for r in clean_results]
        )


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
        retry = RetryPolicy(max_retries=2)
        with pytest.raises(RuntimeError):
            run_tasks(
                inject_faults(_tasks(), plan), jobs=2, store=store,
                retry=retry, progress=_Interrupter(3, RuntimeError),
            )
        resumed = run_tasks(
            inject_faults(_tasks(), plan), jobs=2, store=store, retry=retry
        )
        assert pickle.dumps([r.result for r in resumed]) == pickle.dumps(
            [r.result for r in clean_results]
        )
        # The activation counter survives the kill, so the fault fired on
        # exactly one attempt across both runs (a reset would re-fire it on
        # resume). Attempt counts: fail + retry-success in whichever run(s)
        # executed the task, plus at most one recompute when the first
        # run's success was killed before its checkpoint was written.
        assert 2 <= plan.activations(FAULT_INDEX) <= 3
