#!/usr/bin/env python
"""End-to-end smoke of the campaign service: ``make serve-smoke``.

Drives the real CLI surface the way an operator would — no test harness,
no in-process shortcuts:

1. writes three small campaign specs (two valid, one broken) and submits
   them with ``campaign submit`` (the broken one must be refused
   client-side with every problem listed);
2. drops one more valid spec straight into the inbox (the file-drop
   submission path);
3. runs ``serve --once`` to drain the spool;
4. checks the journal and the spool agree: every submitted job is
   ``done``, each result file's sha256 matches its journaled digest, the
   store holds exactly the campaign's task payloads plus the sweeps'
   stage records, the inbox is empty and ``campaign status`` exits 0.

Exit 0 means the service round-trip works on this machine; any
inconsistency prints what disagreed and exits 1.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SPECS = {
    "smoke-a.json": {
        "name": "smoke-a", "kind": "sweep", "benchmark": "d26_media",
        "grid": {"frequencies_mhz": [400, 800]},
        "config": {"switch_count_range": [3, 4]},
    },
    "smoke-b.json": {
        "name": "smoke-b", "kind": "sweep", "benchmark": "d26_media",
        "grid": {"frequencies_mhz": [500, 600]},
        "config": {"switch_count_range": [3, 4]},
    },
    "smoke-inbox.json": {
        "name": "smoke-inbox", "kind": "sweep", "benchmark": "d26_media",
        "grid": {"frequencies_mhz": [450]},
        "config": {"switch_count_range": [3, 4]},
    },
}
BROKEN = {"name": "smoke-broken", "benchmark": "no-such-design",
          "grid": {"frequencies_mhz": [-1]}}


def cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
        else src
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=env, cwd=REPO, capture_output=True, text=True, timeout=300,
    )


def fail(message: str) -> "None":
    print(f"serve-smoke: FAIL — {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    scratch = Path(tempfile.mkdtemp(prefix="repro-serve-smoke-"))
    spool = scratch / "spool"

    for name, spec in SPECS.items():
        (scratch / name).write_text(json.dumps(spec))
    broken_path = scratch / "smoke-broken.json"
    broken_path.write_text(json.dumps(BROKEN))

    print(f"serve-smoke: spool {spool}")

    # Client-side validation refuses the broken spec before it spools.
    refused = cli("campaign", "submit", str(broken_path),
                  "--dir", str(spool))
    if refused.returncode != 2:
        fail(f"broken spec exited {refused.returncode}, wanted 2\n"
             f"{refused.stdout}{refused.stderr}")
    for fragment in ("benchmark", "grid.frequencies_mhz[0]"):
        if fragment not in refused.stderr:
            fail(f"refusal did not mention {fragment!r}:\n{refused.stderr}")

    for name in ("smoke-a.json", "smoke-b.json"):
        submitted = cli("campaign", "submit", str(scratch / name),
                        "--dir", str(spool))
        if submitted.returncode != 0:
            fail(f"submit {name} exited {submitted.returncode}:\n"
                 f"{submitted.stderr}")

    # The raw file-drop path: no CLI, just an inbox write.
    inbox = spool / "inbox"
    inbox.mkdir(parents=True, exist_ok=True)
    (inbox / "zz-smoke-inbox.json").write_text(
        (scratch / "smoke-inbox.json").read_text()
    )

    served = cli("serve", "--dir", str(spool), "--once", "--batch", "1")
    if served.returncode != 0:
        fail(f"serve exited {served.returncode}:\n"
             f"{served.stdout}{served.stderr}")
    print(served.stdout.strip())

    status = cli("campaign", "status", "--dir", str(spool))
    if status.returncode != 0:
        fail(f"status exited {status.returncode}:\n{status.stderr}")
    print(status.stdout.strip())

    # Journal <-> spool consistency.
    sys.path.insert(0, str(REPO / "src"))
    from repro.campaign import CampaignService

    state = CampaignService.status(spool)
    expected_jobs = 3
    if len(state.jobs) != expected_jobs:
        fail(f"{len(state.jobs)} job(s) journaled, wanted {expected_jobs}")
    if state.incomplete:
        fail("journal still holds incomplete jobs after a drain: "
             + ", ".join(j.job_id for j in state.incomplete))
    total_tasks = 0
    for job in state.jobs.values():
        if job.state != "done":
            fail(f"{job.job_id} is {job.state!r}, wanted done "
                 f"({job.error or 'no error recorded'})")
        blob = Path(job.result_path).read_bytes()
        if hashlib.sha256(blob).hexdigest() != job.digest:
            fail(f"{job.job_id}: result file does not match its "
                 "journaled digest")
        payloads = pickle.loads(blob)
        if len(payloads) != job.total_tasks:
            fail(f"{job.job_id}: {len(payloads)} payload(s) in the result "
                 f"file, journal says {job.total_tasks}")
        total_tasks += job.total_tasks

    # Whole-task payloads, one per task; the served sweeps' per-stage
    # records (``stage:<name>``) share the store.
    from repro.engine.store import ResultStore

    by_type = ResultStore(spool / "store").stats().by_task_type
    store_entries = sum(
        count for task_type, count in by_type.items()
        if not task_type.startswith("stage:")
    )
    if store_entries != total_tasks:
        fail(f"store holds {store_entries} payload(s), campaigns ran "
             f"{total_tasks} task(s)")
    if store_entries == sum(by_type.values()):
        fail("store holds no stage records: served sweeps did not "
             "memoise their stages")
    leftovers = [p.name for p in inbox.iterdir()]
    if leftovers:
        fail(f"inbox not drained: {leftovers}")

    print(f"serve-smoke: OK — {expected_jobs} jobs, {total_tasks} tasks, "
          "journal/store/results consistent")


if __name__ == "__main__":
    main()
