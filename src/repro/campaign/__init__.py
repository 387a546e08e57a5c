"""``repro.campaign`` — durable, declarative experiment campaigns.

The engine (PRs 1–7) made individual tasks parallel, resumable, memoized
and fault-tolerant. This package adds the layer above: **campaigns as
durable named jobs** submitted to a resident service that survives its own
death.

* :mod:`repro.campaign.spec` — the declarative campaign spec (a plain
  JSON/YAML-able dict: parameter grids × scenarios × seeds × config
  settings), validated like :mod:`repro.spec` but reporting *every*
  problem with its JSON path, and compiled into engine task lists;
* :mod:`repro.campaign.journal` — the write-ahead job journal: an
  append-only, per-record-checksummed JSONL file with atomic rotation,
  fsync'd on job state transitions, replayable after a SIGKILL;
* :mod:`repro.campaign.service` — the resident service:
  a bounded job queue with structured backpressure
  (:class:`~repro.errors.BackpressureError` — submissions beyond capacity
  are rejected with a retry-after, never dropped), round-robin task
  interleaving across jobs for per-job fairness, cancel/status, graceful
  SIGTERM drain, and crash-safe ``--resume`` that replays the journal and
  completes every incomplete job bit-identically via the shared
  content-addressed :class:`~repro.engine.store.ResultStore`.

CLI: ``python -m repro.cli serve`` runs the service over a spool
directory; ``python -m repro.cli campaign validate|run|submit|status|
cancel`` are the client verbs. See ``docs/campaign.md``.
"""

from repro.campaign.journal import JobJournal, JobRecord, JournalState
from repro.campaign.service import CampaignService, ServicePaths
from repro.campaign.spec import (
    CampaignSpec,
    SpecIssue,
    compile_campaign,
    load_campaign_file,
    validate_campaign,
)
from repro.errors import (
    BackpressureError,
    CampaignError,
    CampaignSpecError,
    JournalError,
)

__all__ = [
    "BackpressureError",
    "CampaignError",
    "CampaignSpec",
    "CampaignSpecError",
    "CampaignService",
    "JobJournal",
    "JobRecord",
    "JournalError",
    "JournalState",
    "ServicePaths",
    "SpecIssue",
    "compile_campaign",
    "load_campaign_file",
    "validate_campaign",
]
