"""The campaign service: queueing, backpressure, fairness, cancel, resume."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.campaign import CampaignService
from repro.campaign.journal import JobJournal
from repro.campaign.service import request_cancel, submit_file
from repro.errors import BackpressureError, CampaignError, CampaignSpecError


def sweep_spec(name: str, frequencies=(400, 800)) -> dict:
    """A fast, real campaign: d26_media with a tiny switch range."""
    return {
        "name": name, "kind": "sweep", "benchmark": "d26_media",
        "grid": {"frequencies_mhz": list(frequencies)},
        "config": {"switch_count_range": [3, 4]},
    }


def service(tmp_path, **kw) -> CampaignService:
    kw.setdefault("batch_size", 1)
    return CampaignService(tmp_path / "spool", **kw)


def journal_events(tmp_path):
    journal = JobJournal(tmp_path / "spool" / "journal.jsonl", writer=False)
    return [(r["event"], r.get("job")) for r in journal.iter_records()]


def test_submit_run_complete(tmp_path):
    with service(tmp_path) as svc:
        job_id = svc.submit(sweep_spec("one"))
        assert job_id == "job-0001"
        completed = svc.run_until_idle()
        assert completed == ["job-0001"]
    state = CampaignService.status(tmp_path / "spool")
    job = state.jobs["job-0001"]
    assert job.state == "done"
    assert job.done_tasks == job.total_tasks == 2
    assert job.digest
    # The result file exists and matches the journaled digest.
    import hashlib

    blob = (tmp_path / "spool" / "results" / "job-0001.pkl").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == job.digest
    payloads = pickle.loads(blob)
    assert len(payloads) == 2


def test_served_sweep_memoises_stages_in_its_store(tmp_path):
    # The served job arms the stage cache from the service's store, as
    # `campaign run` does with its own.
    with service(tmp_path) as svc:
        svc.submit(sweep_spec("staged", frequencies=(400,)))
        assert svc.run_until_idle() == ["job-0001"]
        task_types = svc.store.stats().by_task_type
    assert task_types["SynthesisTask"] == 1
    assert any(name.startswith("stage:") for name in task_types)


def test_invalid_spec_rejected_at_submit(tmp_path):
    with service(tmp_path) as svc:
        with pytest.raises(CampaignSpecError):
            svc.submit({"name": "x", "benchmark": "zzz"})
        assert svc.queue_depth == 0


def test_backpressure_is_structured_and_journaled(tmp_path):
    with service(tmp_path, max_queue=2) as svc:
        svc.submit(sweep_spec("a"))
        svc.submit(sweep_spec("b"))
        with pytest.raises(BackpressureError) as excinfo:
            svc.submit(sweep_spec("c"))
        exc = excinfo.value
        assert exc.queue_depth == 2
        assert exc.max_queue == 2
        assert exc.retry_after_s > 0
        # Never a silent drop: the rejection is journaled...
        state = CampaignService.status(tmp_path / "spool")
        assert state.rejected == 1
        # ...and in-flight jobs keep progressing regardless.
        assert svc.step() is True
        assert svc.run_until_idle() == ["job-0001", "job-0002"]
        # A slot is free again: the retry goes through.
        assert svc.submit(sweep_spec("c")) == "job-0003"


def test_round_robin_interleaves_jobs(tmp_path):
    """Per-job fairness: with batch_size=1, two 2-task jobs alternate
    instead of running back to back."""
    with service(tmp_path) as svc:
        svc.submit(sweep_spec("a"))
        svc.submit(sweep_spec("b", frequencies=(401, 801)))
        svc.run_until_idle()
    progressed = [
        job for event, job in journal_events(tmp_path)
        if event in ("progress", "done")
    ]
    assert progressed == ["job-0001", "job-0002", "job-0001", "job-0002"]


def test_small_job_not_starved_by_large_one(tmp_path):
    with service(tmp_path) as svc:
        svc.submit(sweep_spec("big", frequencies=(400, 500, 600, 700)))
        svc.submit(sweep_spec("small", frequencies=(800,)))
        svc.run_until_idle()
    done_order = [
        job for event, job in journal_events(tmp_path) if event == "done"
    ]
    # The 1-task job finishes on its first turn, long before the 4-task one.
    assert done_order == ["job-0002", "job-0001"]


def test_cancel_queued_job(tmp_path):
    with service(tmp_path) as svc:
        svc.submit(sweep_spec("a"))
        svc.submit(sweep_spec("b"))
        assert svc.cancel("job-0002") is True
        assert svc.cancel("job-0002") is False  # already gone
        assert svc.cancel("job-9999") is False
        assert svc.run_until_idle() == ["job-0001"]
    state = CampaignService.status(tmp_path / "spool")
    assert state.jobs["job-0002"].state == "cancelled"


def test_cancel_via_control_file(tmp_path):
    with service(tmp_path) as svc:
        svc.submit(sweep_spec("a"))
        request_cancel(svc.paths.root, "job-0001")
        assert svc.run_until_idle() == []
    state = CampaignService.status(tmp_path / "spool")
    assert state.jobs["job-0001"].state == "cancelled"


def test_inbox_accepts_valid_and_rejects_invalid(tmp_path):
    with service(tmp_path) as svc:
        good = tmp_path / "good.json"
        good.write_text(json.dumps(sweep_spec("inboxed")))
        submit_file(svc.paths.root, good)
        bad = svc.paths.inbox / "bad.json"
        bad.write_text(json.dumps({"benchmark": "zzz"}))
        accepted = svc.poll_inbox()
        assert accepted == ["job-0001"]
        assert list(svc.paths.inbox.iterdir()) == []
        rejected = sorted(p.name for p in svc.paths.rejected.iterdir())
        assert rejected == ["bad.json", "bad.json.error"]
        note = (svc.paths.rejected / "bad.json.error").read_text()
        assert "benchmark" in note


def test_submit_file_validates_client_side(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"benchmark": "zzz"}))
    with pytest.raises(CampaignSpecError):
        submit_file(tmp_path / "spool", bad)
    inbox = tmp_path / "spool" / "inbox"
    assert not inbox.exists() or list(inbox.iterdir()) == []


def test_backpressured_inbox_file_stays_for_retry(tmp_path):
    with service(tmp_path, max_queue=1) as svc:
        svc.submit(sweep_spec("first"))
        waiting = tmp_path / "waiting.json"
        waiting.write_text(json.dumps(sweep_spec("second")))
        submit_file(svc.paths.root, waiting)
        assert svc.poll_inbox() == []  # queue full: file left in place
        assert len(list(svc.paths.inbox.iterdir())) == 1
        svc.run_until_idle(poll_inbox=False)  # drain the first job...
        assert svc.poll_inbox() == ["job-0002"]  # ...then the retry lands
        svc.run_until_idle()
    state = CampaignService.status(tmp_path / "spool")
    assert state.jobs["job-0002"].state == "done"


def test_compile_failure_fails_the_job_not_the_service(tmp_path, monkeypatch):
    import repro.campaign.service as service_mod

    real_compile = service_mod.compile_campaign

    def compile_or_explode(spec, **kw):
        if spec.name == "doomed":
            raise CampaignError("no design point to simulate")
        return real_compile(spec, **kw)

    monkeypatch.setattr(service_mod, "compile_campaign", compile_or_explode)
    with service(tmp_path) as svc:
        svc.submit({**sweep_spec("doomed"), "name": "doomed"})
        svc.submit(sweep_spec("fine"))
        assert svc.run_until_idle() == ["job-0002"]
    state = CampaignService.status(tmp_path / "spool")
    assert state.jobs["job-0001"].state == "failed"
    assert state.jobs["job-0001"].error
    assert state.jobs["job-0002"].state == "done"


def test_refuses_incomplete_journal_without_resume(tmp_path):
    with service(tmp_path) as svc:
        svc.submit(sweep_spec("a"))
        # Close with the job still queued (simulates a crash-adjacent stop;
        # a real SIGKILL is covered by the chaos suite).
    with pytest.raises(CampaignError, match="incomplete"):
        service(tmp_path)
    # With resume, the queued job is picked up and finished.
    with service(tmp_path, resume=True) as svc:
        assert svc.run_until_idle() == ["job-0001"]


def test_resume_fails_a_job_whose_spec_no_longer_validates(tmp_path):
    """An incomplete job whose journaled spec no longer validates (here:
    the retired ``stages`` key) is journaled failed; the rest resume."""
    (tmp_path / "spool").mkdir()
    with JobJournal(tmp_path / "spool" / "journal.jsonl",
                    writer=True) as journal:
        journal.append(
            "submitted", job="job-0001", total_tasks=2,
            spec={**sweep_spec("old"), "stages": ["precheck"]},
        )
        journal.append(
            "submitted", job="job-0002", total_tasks=2,
            spec=sweep_spec("new"),
        )
    with service(tmp_path, resume=True) as svc:
        assert svc.run_until_idle() == ["job-0002"]
    jobs = CampaignService.status(tmp_path / "spool").jobs
    assert jobs["job-0001"].state == "failed"
    assert "stages: unknown key" in jobs["job-0001"].error
    assert jobs["job-0002"].state == "done"


def test_resume_reuses_store_results(tmp_path):
    with service(tmp_path) as svc:
        svc.submit(sweep_spec("a"))
        assert svc.step() is True  # one task done, then "crash"
    with service(tmp_path, resume=True) as svc:
        hits_before = svc.store.hits
        assert svc.run_until_idle() == ["job-0001"]
        assert svc.store.hits > hits_before  # first task served from store


def test_status_is_readonly_while_service_runs(tmp_path):
    with service(tmp_path) as svc:
        svc.submit(sweep_spec("a"))
        state = CampaignService.status(tmp_path / "spool")
        assert state.jobs["job-0001"].state == "queued"
        assert svc.journal.is_writer  # the reader did not steal the lock


def test_serve_forever_idle_exit_and_drain(tmp_path):
    with service(tmp_path) as svc:
        svc.submit(sweep_spec("a"))
        svc.serve_forever(idle_exit_s=0.05, poll_s=0.01,
                          install_signals=False)
    events = [event for event, _ in journal_events(tmp_path)]
    assert events[-1] == "service-stop"
    assert "checkpoint" in events
    state = CampaignService.status(tmp_path / "spool")
    assert state.jobs["job-0001"].state == "done"


def _digests(root) -> dict:
    state = CampaignService.status(root)
    return {job.spec["name"]: job.digest for job in state.jobs.values()}


def _done_counts(root) -> dict:
    journal = JobJournal(root / "journal.jsonl", writer=False)
    counts: dict = {}
    for record in journal.iter_records():
        if record["event"] == "done":
            counts[record["job"]] = counts.get(record["job"], 0) + 1
    return counts


def test_sequential_concurrent_and_resumed_runs_agree(tmp_path):
    """Three campaigns run one after another, round-robin at once, and
    round-robin stopped half way then resumed: nothing is lost, nothing
    is duplicated, and every job's result digest agrees byte for byte."""
    specs = [
        sweep_spec("a", (400, 500, 600, 700)),
        sweep_spec("b", (450, 550, 650, 750)),
        sweep_spec("c", (420, 520, 620, 720)),
    ]
    with CampaignService(tmp_path / "sequential", batch_size=4) as svc:
        for spec in specs:
            svc.submit(spec)
            svc.run_until_idle(poll_inbox=False)
    with CampaignService(tmp_path / "concurrent", batch_size=1) as svc:
        for spec in specs:
            svc.submit(spec)
        svc.run_until_idle(poll_inbox=False)
    with CampaignService(tmp_path / "resumed", batch_size=1) as svc:
        for spec in specs:
            svc.submit(spec)
        for _ in range(6):  # half of the 12 tasks, then stop
            svc.step()
    with CampaignService(tmp_path / "resumed", batch_size=1,
                         resume=True) as svc:
        svc.run_until_idle(poll_inbox=False)

    sequential = _digests(tmp_path / "sequential")
    assert sorted(sequential) == ["a", "b", "c"]
    assert all(sequential.values())
    for run in ("concurrent", "resumed"):
        assert _digests(tmp_path / run) == sequential
        counts = _done_counts(tmp_path / run)
        assert len(counts) == len(specs)  # none lost
        assert set(counts.values()) == {1}  # none duplicated


def test_batched_sim_result_file_identical_on_replay(tmp_path):
    """A batched sim job's result file is byte-identical whether its
    replications were computed in one chunk or served from the store."""
    spec = {
        "name": "batched", "kind": "sim", "benchmark": "d26_media",
        "scenarios": ["bernoulli"], "seeds": [0, 1, 2, 3, 4],
        "injection_scales": [0.3], "cycles": 300, "warmup": 30,
        "batch": 4, "config": {"switch_count_range": [3, 4]},
    }
    with service(tmp_path) as svc:
        cold = svc.submit(spec)
        svc.run_until_idle(poll_inbox=False)
        hits_before = svc.store.hits
        replay = svc.submit(spec)
        svc.run_until_idle(poll_inbox=False)
        assert svc.store.hits > hits_before  # the replay was store-served
    results = tmp_path / "spool" / "results"
    assert (results / f"{replay}.pkl").read_bytes() == (
        results / f"{cold}.pkl"
    ).read_bytes()


def test_bad_service_parameters(tmp_path):
    with pytest.raises(CampaignError, match="max_queue"):
        CampaignService(tmp_path / "s", max_queue=0)
    with pytest.raises(CampaignError, match="batch_size"):
        CampaignService(tmp_path / "s", batch_size=0)
    with pytest.raises(CampaignError, match="jobs"):
        CampaignService(tmp_path / "s", jobs=-1)


@pytest.mark.parametrize("flag, message", [
    ("--max-queue", "max_queue must be >= 1"),
    ("--batch", "batch_size must be >= 1"),
])
def test_serve_bad_queue_or_batch_exits_2_from_the_service(
    tmp_path, capsys, flag, message
):
    from repro.cli import main

    spool = tmp_path / "spool"
    assert main(["serve", "--dir", str(spool), "--once", flag, "0"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not spool.exists()  # refused before the spool is made


def test_serve_rejects_negative_jobs_before_reading_the_spool(
    tmp_path, capsys
):
    from repro.cli import main

    spec = tmp_path / "one.json"
    spec.write_text(json.dumps(sweep_spec("one")))
    queued = submit_file(tmp_path / "spool", spec)
    argv = ["serve", "--dir", str(tmp_path / "spool"), "--once", "--jobs", "-1"]
    assert main(argv) == 2
    assert "jobs must be >= 0" in capsys.readouterr().err
    assert queued.exists()  # still in the inbox, never journaled failed
    assert not (tmp_path / "spool" / "journal.jsonl").exists()
