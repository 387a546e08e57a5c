"""Deterministic fault injection for the engine: the chaos harness.

The supervision layer (:mod:`repro.engine.supervise`) claims to survive
transient failures, worker crashes and hangs. Claims about recovery paths
rot unless they are *executed*, so this module makes faults a first-class,
reproducible input: a :class:`FaultPlan` decides — deterministically, from
a seed or an explicit index map — which tasks misbehave and how, and
:func:`inject_faults` wraps those tasks so the fault fires inside the
worker exactly where a real failure would.

Three fault kinds cover the recovery matrix:

* ``"transient"`` — raise :class:`TransientFaultError` on the first
  ``times`` activations, then succeed: exercises ``Supervision.retries``.
* ``"crash"`` — hard-exit the worker process (``os._exit``): exercises
  pool-break attribution and poison-task quarantine. In the main process
  (serial path) it raises :class:`WorkerCrashError` instead — a fault
  harness must never kill the test runner.
* ``"delay"`` — sleep ``delay_s`` before running: exercises per-task
  deadlines and the pool watchdog.

Fault state (how many times each fault has fired) lives in small counter
files under ``state_dir``, because activations happen in *worker
processes*: memory is forked away, but the filesystem is shared, so
"fail twice then succeed" works across retries, pool restarts and even a
killed-and-resumed campaign.

Store integration: :class:`FaultyTask` declares
``__fingerprint_delegate__ = "inner"``, so a fault-wrapped task has the
*same* content address as the clean task. A campaign that survived
injected faults therefore shares its checkpoints with — and must merge
bit-identically to — a fault-free run.

**Service-level fault sites.** Task wrapping covers worker-side failures;
the campaign service (PR 8) also has *orchestrator*-side failure points:
the journal write, a task batch, the gap between jobs. Those are chaos-
tested through named **fault sites**: code at a failure point calls
:func:`maybe_fire` with its site name — a no-op unless the
``$REPRO_FAULT_SITES`` environment variable points at a directory armed by
:func:`arm_sites`. Arming is explicit and per-process-tree (tests pass the
env to the subprocess they intend to kill), activation counts live in the
same O_APPEND counter files, so "crash once, then pass" survives the very
process death it causes — which is exactly what a ``serve --resume`` chaos
test needs. Site kinds reuse :class:`FaultSpec`; ``"crash"`` at a site
hard-exits the *current* process even from ``MainProcess`` (the armed
process is the designated victim — never arm sites in a process you cannot
afford to lose).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Hashable, List, Optional, Sequence, Tuple

from repro.errors import EngineError
from repro.rng import make_rng

_VALID_KINDS = ("transient", "crash", "delay", "noop")


class TransientFaultError(EngineError):
    """An injected recoverable failure (a retry should absorb it)."""


class WorkerCrashError(EngineError):
    """An injected worker crash running where a hard exit is not allowed
    (the main process — i.e. the serial path)."""


@dataclass(frozen=True)
class FaultSpec:
    """How one fault misbehaves.

    Attributes:
        kind: ``"transient"`` / ``"crash"`` / ``"delay"``; ``"noop"``
            counts activations without misbehaving (used by tests to
            assert no-task-runs-twice).
        times: Fire on the first N activations only (``-1`` = every time).
            A ``times=2`` transient fault fails twice, then succeeds.
        delay_s: Sleep length for ``"delay"`` faults.
        exit_code: Worker exit status for ``"crash"`` faults.
        skip: Let the first ``skip`` activations pass before the fault
            window opens — ``skip=3, times=1`` fires on activation 4 only.
            This is what lets chaos tests kill a service at an *arbitrary*
            point: the k-th journal write, the k-th batch.
    """

    kind: str
    times: int = 1
    delay_s: float = 0.0
    exit_code: int = 32
    skip: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise EngineError(
                f"fault kind must be one of {_VALID_KINDS}, got {self.kind!r}"
            )
        if self.times < -1:
            raise EngineError(f"times must be >= -1, got {self.times}")
        if self.delay_s < 0:
            raise EngineError(f"delay_s must be >= 0, got {self.delay_s}")
        if self.skip < 0:
            raise EngineError(f"skip must be >= 0, got {self.skip}")


@dataclass(frozen=True)
class FaultyTask:
    """An engine task wrapped with an injected fault.

    The engine runs the fault first (:meth:`activate_fault`, duck-typed by
    ``repro.engine.tasks``), then the wrapped ``inner`` task. ``key``
    mirrors ``inner.key`` so merged results are indistinguishable from an
    unwrapped run.
    """

    key: Hashable
    inner: object
    spec: FaultSpec
    state_dir: str
    fault_id: str

    #: Store fingerprinting resolves the wrapper to the wrapped task: a
    #: fault-injected campaign shares content addresses with a clean one.
    __fingerprint_delegate__: ClassVar[str] = "inner"

    def activations(self) -> int:
        """How many times this fault has fired so far."""
        return _count(self._counter_path())

    def activate_fault(self) -> None:
        """Fire the fault (worker side). Raises/sleeps/exits per the spec."""
        count = _bump(self._counter_path())
        spec = self.spec
        if spec.kind == "noop":
            return
        if count <= spec.skip:
            return  # fault window not open yet
        if spec.times >= 0 and count - spec.skip > spec.times:
            return
        if spec.kind == "delay":
            time.sleep(spec.delay_s)
            return
        if spec.kind == "transient":
            raise TransientFaultError(
                f"injected transient fault on task {self.key!r} "
                f"(activation {count})"
            )
        # kind == "crash": hard-exit the worker so the pool breaks exactly
        # like a real OOM kill / segfault. Never exit the main process.
        import multiprocessing

        if multiprocessing.current_process().name == "MainProcess":
            raise WorkerCrashError(
                f"injected crash on task {self.key!r} (activation {count}; "
                "raised, not exited: running in the main process)"
            )
        os._exit(spec.exit_code)

    def _counter_path(self) -> Path:
        return Path(self.state_dir) / f"{self.fault_id}.count"


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic assignment of faults to task indices.

    Build one explicitly (``FaultPlan(state_dir, faults={2: spec})``) or
    from a seed (:meth:`seeded`), then :meth:`wrap` a task list. The plan
    owns the counter directory, so :meth:`activations` /:meth:`reset` can
    inspect and rearm fault state between runs.
    """

    state_dir: str
    faults: Tuple[Tuple[int, FaultSpec], ...] = ()
    #: Wrap *every* task (unfaulted ones with a ``"noop"`` counter) so
    #: tests can assert exact per-task execution counts.
    count_all: bool = False

    def __init__(
        self,
        state_dir,
        faults=(),
        count_all: bool = False,
    ) -> None:
        if isinstance(faults, dict):
            items = tuple(sorted(faults.items()))
        else:
            items = tuple(faults)
        for index, spec in items:
            if index < 0:
                raise EngineError(f"fault index must be >= 0, got {index}")
            if not isinstance(spec, FaultSpec):
                raise EngineError(
                    f"fault for index {index} must be a FaultSpec, "
                    f"got {type(spec).__name__}"
                )
        object.__setattr__(self, "state_dir", str(state_dir))
        object.__setattr__(self, "faults", items)
        object.__setattr__(self, "count_all", bool(count_all))
        Path(self.state_dir).mkdir(parents=True, exist_ok=True)

    @classmethod
    def seeded(
        cls,
        state_dir,
        n_tasks: int,
        seed: int,
        *,
        rate: float = 0.25,
        kinds: Sequence[str] = ("transient", "crash", "delay"),
        times: int = 1,
        delay_s: float = 0.05,
        count_all: bool = False,
    ) -> "FaultPlan":
        """A reproducible random plan: each task index draws a fault with
        probability ``rate``; kind is drawn uniformly from ``kinds``."""
        if not 0 <= rate <= 1:
            raise EngineError(f"rate must be in [0, 1], got {rate}")
        rng = make_rng(seed, "fault-plan", n_tasks, rate, tuple(kinds))
        faults = {}
        for index in range(n_tasks):
            if rng.random() < rate:
                kind = kinds[rng.randrange(len(kinds))]
                faults[index] = FaultSpec(
                    kind=kind, times=times, delay_s=delay_s
                )
        return cls(state_dir, faults, count_all=count_all)

    def spec_for(self, index: int) -> Optional[FaultSpec]:
        for fault_index, spec in self.faults:
            if fault_index == index:
                return spec
        return None

    def wrap(self, tasks: Sequence) -> List:
        """Return ``tasks`` with the planned faults attached."""
        wrapped: List = []
        for index, task in enumerate(tasks):
            spec = self.spec_for(index)
            if spec is None and self.count_all:
                spec = FaultSpec(kind="noop", times=-1)
            if spec is None:
                wrapped.append(task)
            else:
                wrapped.append(FaultyTask(
                    key=task.key, inner=task, spec=spec,
                    state_dir=self.state_dir, fault_id=f"fault-{index}",
                ))
        return wrapped

    def activations(self, index: int) -> int:
        """Execution count of task ``index`` (0 if never activated)."""
        return _count(Path(self.state_dir) / f"fault-{index}.count")

    def reset(self) -> None:
        """Forget all activation counts (rearm every fault)."""
        for path in Path(self.state_dir).glob("fault-*.count"):
            try:
                path.unlink()
            except OSError:
                pass


def inject_faults(tasks: Sequence, plan: FaultPlan) -> List:
    """Convenience alias for ``plan.wrap(tasks)``."""
    return plan.wrap(tasks)


def unwrap_task(task):
    """The task behind a possible fault wrapper (identity otherwise)."""
    return getattr(task, "inner", task)


# --------------------------------------------------------------------------
# named fault sites (service-level chaos)
# --------------------------------------------------------------------------

#: Environment variable naming the armed fault-site directory. Unset (the
#: overwhelmingly common case) makes every :func:`maybe_fire` a single
#: dict lookup + env read — cheap enough for hot paths like journal writes.
SITES_ENV = "REPRO_FAULT_SITES"

#: Site names wired into the production code paths (for discoverability;
#: :func:`maybe_fire` accepts any name).
KNOWN_SITES = (
    "journal-write",      # JobJournal.append, before the record is written
    "service-batch",      # CampaignService, before each task batch
    "service-between-jobs",  # CampaignService, after a job completes
)


def arm_sites(state_dir, sites) -> dict:
    """Write arming files for ``sites`` (name -> :class:`FaultSpec`) under
    ``state_dir`` and return the environment mapping that activates them.

    Pass the returned dict into the *victim* process's environment
    (``subprocess.Popen(env={**os.environ, **arm_sites(...)})``). Arming
    the current process (``os.environ.update``) is possible but means a
    ``"crash"`` site will genuinely ``os._exit`` it.
    """
    root = Path(state_dir)
    root.mkdir(parents=True, exist_ok=True)
    for name, spec in dict(sites).items():
        if not isinstance(spec, FaultSpec):
            raise EngineError(
                f"site {name!r} must map to a FaultSpec, "
                f"got {type(spec).__name__}"
            )
        payload = (
            f"{spec.kind}\n{spec.times}\n{spec.delay_s}\n{spec.exit_code}\n"
            f"{spec.skip}\n"
        )
        tmp = root / f".{name}.site.tmp"
        tmp.write_text(payload)
        os.replace(tmp, root / f"{name}.site")
    return {SITES_ENV: str(root)}


def site_activations(state_dir, site: str) -> int:
    """How many times ``site`` has fired (across every armed process)."""
    return _count(Path(state_dir) / f"site-{site}.count")


def reset_sites(state_dir) -> None:
    """Disarm every site and forget its activation counts."""
    root = Path(state_dir)
    for pattern in ("*.site", "site-*.count"):
        for path in root.glob(pattern):
            try:
                path.unlink()
            except OSError:
                pass


def maybe_fire(site: str) -> None:
    """Fire the named fault site if one is armed for this process tree.

    No-op unless ``$REPRO_FAULT_SITES`` names a directory containing
    ``<site>.site``. Counters persist on disk, so ``times=N`` means the
    site misbehaves on its first N activations *ever* — surviving the
    process kill it causes, which is what lets a restarted service run
    straight through the same code path.
    """
    root = os.environ.get(SITES_ENV)
    if not root:
        return
    try:
        lines = (Path(root) / f"{site}.site").read_text().splitlines()
        kind, times_s, delay_s, exit_code_s, skip_s = lines[:5]
        spec = FaultSpec(
            kind=kind, times=int(times_s), delay_s=float(delay_s),
            exit_code=int(exit_code_s), skip=int(skip_s),
        )
    except (OSError, ValueError, IndexError):
        return  # not armed (or torn arming file): never fault by accident
    count = _bump(Path(root) / f"site-{site}.count")
    if spec.kind == "noop":
        return
    if count <= spec.skip:
        return  # fault window not open yet
    if spec.times >= 0 and count - spec.skip > spec.times:
        return
    if spec.kind == "delay":
        time.sleep(spec.delay_s)
        return
    if spec.kind == "transient":
        raise TransientFaultError(
            f"injected transient fault at site {site!r} (activation {count})"
        )
    # kind == "crash": the armed process is the designated victim — exit
    # hard, exactly like a SIGKILL at this instruction.
    os._exit(spec.exit_code)


def _bump(path: Path) -> int:
    """Append one byte to a counter file; return the new count.

    ``O_APPEND`` single-byte writes are atomic, so concurrent workers each
    observe a distinct count.
    """
    with open(path, "ab") as fh:
        fh.write(b"x")
        fh.flush()
        return fh.tell()


def _count(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0
