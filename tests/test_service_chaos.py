"""Service chaos: SIGKILL-equivalent crashes at exact points, then resume.

The acceptance criterion of the durable campaign service: a service
process killed at an *arbitrary* instruction — mid journal append, on the
way into a task batch, in the gap between two jobs — and restarted with
``serve --resume`` must finish with results **byte-identical** to a run
that was never interrupted.

"Arbitrary instruction" is made deterministic by the named fault sites in
:mod:`repro.engine.faults`: a ``crash`` spec with ``skip=k`` hard-exits
the armed process (``os._exit``, indistinguishable from ``kill -9`` at
that line) on the site's activation ``k+1``. Each leg here runs the real
CLI (``python -m repro.cli serve --once``) in a subprocess, because the
victim genuinely dies.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import CampaignService
from repro.campaign.journal import JobJournal
from repro.campaign.service import submit_file
from repro.engine.faults import FaultSpec, arm_sites, site_activations
from repro.engine.store import ResultStore

REPO = Path(__file__).resolve().parents[1]

#: Two small real campaigns (2 synthesis tasks each, ~0.5s total) so the
#: round-robin scheduler has genuine interleaving to be killed inside of.
SPECS = (
    {
        "name": "alpha", "kind": "sweep", "benchmark": "d26_media",
        "grid": {"frequencies_mhz": [400, 800]},
        "config": {"switch_count_range": [3, 4]},
    },
    {
        "name": "beta", "kind": "sweep", "benchmark": "d26_media",
        "grid": {"frequencies_mhz": [500, 600]},
        "config": {"switch_count_range": [3, 4]},
    },
)

#: (site, skip, exit_code): where the service dies. With ``--batch 1``
#: and two 2-task jobs the interleaving is deterministic, so each skip
#: lands at a known — and distinct — point of the job lifecycle:
#:   journal-write skip=4        dying *inside* the append of job-0001's
#:                               first progress record (the batch already
#:                               ran; its payload is in the store, the
#:                               journal never heard about it);
#:   service-batch skip=2        dying on the way into the third batch
#:                               (both jobs half done);
#:   service-between-jobs skip=0 dying the instant the first job
#:                               finished (its result file and ``done``
#:                               record are on disk, the other job is
#:                               half done).
KILL_POINTS = (
    ("journal-write", 4, 41),
    ("service-batch", 2, 42),
    ("service-between-jobs", 0, 43),
)


def _cli(args, *, extra_env=None, timeout=180):
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
        else src
    )
    env.pop("REPRO_FAULT_SITES", None)  # never inherit an armed site
    if extra_env:
        env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=env, cwd=REPO, capture_output=True, text=True, timeout=timeout,
    )


def _submit_all(spool: Path, scratch: Path) -> None:
    for i, spec in enumerate(SPECS):
        path = scratch / f"spec-{i}.json"
        path.write_text(json.dumps(spec))
        submit_file(spool, path)


def _results(spool: Path) -> dict:
    return {
        p.name: p.read_bytes()
        for p in sorted((spool / "results").glob("*.pkl"))
    }


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The uninterrupted run every killed-and-resumed spool must equal."""
    scratch = tmp_path_factory.mktemp("reference")
    spool = scratch / "spool"
    _submit_all(spool, scratch)
    proc = _cli(["serve", "--dir", str(spool), "--once", "--batch", "1"])
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    results = _results(spool)
    assert set(results) == {"job-0001.pkl", "job-0002.pkl"}
    return results


@pytest.mark.slow
def _task_entries(spool: Path):
    """The fingerprints of the store's whole-task entries; the per-stage
    records a served sweep also writes there are left out."""
    return {
        fp for fp, task_type in
        ResultStore(spool / "store", readonly=True).entries().items()
        if not task_type.startswith("stage:")
    }


class TestKilledServiceResumes:
    @pytest.mark.parametrize(
        "site, skip, exit_code", KILL_POINTS,
        ids=[site for site, _s, _c in KILL_POINTS],
    )
    def test_resume_is_bit_identical(
        self, tmp_path, reference, site, skip, exit_code
    ):
        spool = tmp_path / "spool"
        sites = tmp_path / "sites"
        _submit_all(spool, tmp_path)
        env = arm_sites(sites, {
            site: FaultSpec(
                "crash", times=1, skip=skip, exit_code=exit_code
            ),
        })

        victim = _cli(
            ["serve", "--dir", str(spool), "--once", "--batch", "1"],
            extra_env=env,
        )
        assert victim.returncode == exit_code, (
            victim.stdout, victim.stderr
        )
        # The site fired exactly where it was armed to.
        assert site_activations(sites, site) == skip + 1

        # A crash is resumed deliberately: without --resume the spool
        # refuses to open, exit 2, naming the incomplete jobs.
        refused = _cli(
            ["serve", "--dir", str(spool), "--once", "--batch", "1"]
        )
        assert refused.returncode == 2
        assert "incomplete" in refused.stderr
        assert "--resume" in refused.stderr

        resumed = _cli([
            "serve", "--dir", str(spool), "--once", "--batch", "1",
            "--resume",
        ])
        assert resumed.returncode == 0, (resumed.stdout, resumed.stderr)

        # The acceptance criterion: every result file byte-identical to
        # the run that was never killed, and the journaled digests agree.
        assert _results(spool) == reference
        state = CampaignService.status(spool)
        for name, blob in reference.items():
            job = state.jobs[name[: -len(".pkl")]]
            assert job.state == "done"
            assert job.digest == hashlib.sha256(blob).hexdigest()

        # The resumed service re-enqueued journaled work rather than
        # rediscovering it: the replayed jobs carry resumed markers.
        journal = JobJournal(spool / "journal.jsonl", writer=False)
        resumed_jobs = [
            r["job"] for r in journal.iter_records()
            if r["event"] == "queued" and r.get("resumed")
        ]
        assert resumed_jobs, "resume must re-enqueue the incomplete jobs"

    def test_resume_serves_completed_tasks_from_store(
        self, tmp_path, reference
    ):
        """The mechanism behind bit-identity: after the kill, the store
        already holds the completed tasks' payloads, so the resumed run
        recomputes only what the crash actually lost."""
        spool = tmp_path / "spool"
        sites = tmp_path / "sites"
        _submit_all(spool, tmp_path)
        # Die entering the very last batch: 3 of 4 tasks are checkpointed.
        env = arm_sites(sites, {
            "service-batch": FaultSpec(
                "crash", times=1, skip=3, exit_code=45
            ),
        })
        victim = _cli(
            ["serve", "--dir", str(spool), "--once", "--batch", "1"],
            extra_env=env,
        )
        assert victim.returncode == 45, (victim.stdout, victim.stderr)

        store_before = _task_entries(spool)
        assert len(store_before) == 3

        resumed = _cli([
            "serve", "--dir", str(spool), "--once", "--batch", "1",
            "--resume",
        ])
        assert resumed.returncode == 0, (resumed.stdout, resumed.stderr)
        assert _results(spool) == reference
        # Every pre-kill payload was reused in place, none recomputed
        # into a different address.
        store_after = _task_entries(spool)
        assert store_before <= store_after
        assert len(store_after) == 4
