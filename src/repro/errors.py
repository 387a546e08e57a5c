"""Exception hierarchy for the SunFloor 3D reproduction.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch one base class. The subclasses distinguish the stage of the flow that
failed: specification validation, infeasible synthesis, LP solving, and
floorplanning.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class SpecError(ReproError):
    """An input specification (core or communication) is malformed."""


class SynthesisError(ReproError):
    """Topology synthesis could not produce any valid design point."""


class PathComputationError(SynthesisError):
    """No constraint-respecting, deadlock-free path exists for a flow."""


class LPError(ReproError):
    """The linear program is malformed or could not be solved."""


class InfeasibleLPError(LPError):
    """The linear program has no feasible solution."""


class UnboundedLPError(LPError):
    """The linear program objective is unbounded below."""


class FloorplanError(ReproError):
    """A floorplanning step failed (overlap removal, insertion, legality)."""


class EngineError(ReproError):
    """The parallel sweep engine was misconfigured or a worker failed."""


class StoreError(EngineError):
    """The on-disk result store is unusable (unwritable/invalid location)
    or a value has no stable fingerprint."""


class LockTimeoutError(EngineError):
    """An inter-process file lock could not be acquired within its timeout
    (another process holds it for longer than expected)."""

    def __init__(self, message: str, *, path=None, timeout_s: float = 0.0):
        super().__init__(message)
        self.path = path
        self.timeout_s = timeout_s


class CampaignError(ReproError):
    """The campaign service layer was misconfigured or a job failed in a
    way the service itself could not absorb."""


class CampaignSpecError(CampaignError):
    """A declarative campaign spec is invalid. Carries *every* problem
    found (``issues``: a list of :class:`repro.campaign.spec.SpecIssue`),
    each with the JSON path of the offending value, not just the first."""

    def __init__(self, issues):
        self.issues = list(issues)
        lines = [f"  {issue.path}: {issue.message}" for issue in self.issues]
        super().__init__(
            "invalid campaign spec "
            f"({len(self.issues)} problem{'s' if len(self.issues) != 1 else ''}):\n"
            + "\n".join(lines)
        )


class JournalError(CampaignError):
    """The job journal is unusable: unwritable location, a second writer
    holds the journal lock, or corruption beyond the tolerated torn tail."""


class BackpressureError(CampaignError):
    """A submission was rejected because the service's bounded job queue is
    full. Structured — never a silent drop: carries the observed queue
    depth, the configured capacity and a retry-after estimate."""

    def __init__(self, message: str, *, queue_depth: int = 0,
                 max_queue: int = 0, retry_after_s: float = 1.0):
        super().__init__(message)
        self.queue_depth = queue_depth
        self.max_queue = max_queue
        self.retry_after_s = retry_after_s


class SupervisionError(EngineError):
    """Base class for failures *synthesized by the engine supervisor* (as
    opposed to errors raised by task code): deadline expiries and poison-task
    quarantines. ``run_tasks(...,
    supervision=Supervision(on_error="quarantine"))`` returns these as
    structured :class:`~repro.engine.tasks.TaskResult` errors instead of
    raising."""


class TaskTimeoutError(SupervisionError):
    """A task exceeded its per-task deadline; its worker pool was torn down
    and regenerated rather than waited on forever."""

    def __init__(self, message: str, *, key=None, timeout_s: float = 0.0):
        super().__init__(message)
        self.key = key
        self.timeout_s = timeout_s


class TaskQuarantinedError(SupervisionError):
    """A task was attributed as a worker-pool crasher (or could not be
    scheduled after the pool-restart budget ran out) and quarantined so the
    rest of the campaign could complete."""

    def __init__(self, message: str, *, key=None, attempts: int = 0,
                 reason: str = "crash"):
        super().__init__(message)
        self.key = key
        self.attempts = attempts
        self.reason = reason
