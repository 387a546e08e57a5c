"""``repro.engine`` — the parallel design-space exploration engine.

The outer loop of Fig. 3 sweeps architectural parameters (frequency, the
PG weight α, link width, switch-count range) and re-runs the full
synthesis flow at every point. Those points are independent, so this
package fans them across a process pool:

* :mod:`repro.engine.tasks` — pickling-safe task descriptors and the
  worker entry point;
* :mod:`repro.engine.executor` — the pool executor: fork-aware, with
  deterministic result merging, progress callbacks and a graceful serial
  fallback;
* :mod:`repro.engine.grid` — :class:`ParameterGrid` /
  :class:`GridPoint`, the design-space cross product, validated up front
  by :class:`~repro.core.config.SynthesisConfig`'s own rules (the grid
  keeps none of its own);
* :func:`~repro.engine.tasks.sim_param_issues` — the one owner of the
  traffic-knob rules (seeds, injection scales, cycles/warmup, packet
  length, batch) that ``cli sim``, the library and campaign specs apply;
  :func:`resolve_jobs` is the one judge of ``jobs``;
* :mod:`repro.engine.store` — the content-addressed on-disk result store:
  ``run_tasks(..., store=ResultStore(dir))`` serves already-computed points
  from disk and checkpoints new ones incrementally, making campaigns
  resumable;
* :mod:`repro.engine.stagecache` — per-stage memoization over the store:
  each pipeline stage declares its input signature, so a sweep re-runs
  only the stages a parameter change actually invalidates
  (``build_tasks(..., stage_cache_dir=...)`` /
  ``synthesize(stage_cache=...)``);
* :mod:`repro.engine.supervise` — fault tolerance: per-task retries,
  deadline watchdog, poison-task quarantine with bounded pool restarts,
  all carried by one :class:`Supervision` value
  (``run_tasks(..., supervision=Supervision(...))``);
* :mod:`repro.engine.faults` — the deterministic fault-injection harness
  (seeded :class:`FaultPlan`; transient/crash/delay faults) that proves
  the recovery paths in the tier-1 suite, plus named fault *sites*
  (:func:`arm_sites` / :func:`maybe_fire`) for orchestrator-side chaos:
  crash a designated process at an exact journal write or scheduling
  turn;
* :mod:`repro.engine.locks` — :class:`FileLock`, the advisory
  inter-process lock (kernel-released on process death) guarding the
  store's mutations and the campaign journal's single-writer rule;
* :mod:`repro.engine.profile` — :class:`Timer`, the wall-clock stopwatch
  for timing metadata;
* :mod:`repro.engine.reference` — the frozen pre-optimisation routing
  baseline and unmemoised store fingerprint (regression oracles).

Quickstart::

    from repro.engine import ParameterGrid, build_tasks, run_tasks

    grid = ParameterGrid(frequencies_mhz=(300, 400, 500), alphas=(0.4, 0.7))
    tasks = build_tasks(core_spec, comm_spec, grid, SynthesisConfig())
    results = run_tasks(tasks, jobs=0)   # 0/None = one worker per CPU
    best = min(
        (p for r in results for p in r.result.points),
        key=lambda p: p.total_power_mw,
    )

The higher-level sweeps (:func:`repro.core.frequency_sweep.sweep_frequencies`
and friends) run on this engine and expose the same ``jobs`` / ``progress``
knobs.
"""

from repro.engine.executor import ProgressFn, resolve_jobs, run_tasks
from repro.engine.faults import (
    FaultPlan,
    FaultSpec,
    FaultyTask,
    arm_sites,
    inject_faults,
    maybe_fire,
    reset_sites,
    site_activations,
)
from repro.engine.grid import GridPoint, ParameterGrid, build_tasks
from repro.engine.locks import FileLock, LockTimeoutError
from repro.engine.profile import Timer
from repro.engine.stagecache import (
    StageCache,
    StageRecord,
    merge_stage_stats,
    open_stage_cache,
)
from repro.engine.store import ResultStore, fingerprint_task, open_store
from repro.engine.supervise import Supervision
from repro.engine.tasks import (
    BatchSimulationTask,
    CandidateTask,
    SimulationTask,
    SynthesisTask,
    TaskResult,
    run_task,
)
from repro.errors import (
    SupervisionError,
    TaskQuarantinedError,
    TaskTimeoutError,
)

__all__ = [
    "BatchSimulationTask",
    "CandidateTask",
    "FaultPlan",
    "FaultSpec",
    "FaultyTask",
    "FileLock",
    "GridPoint",
    "LockTimeoutError",
    "ParameterGrid",
    "ProgressFn",
    "ResultStore",
    "SimulationTask",
    "StageCache",
    "StageRecord",
    "Supervision",
    "SupervisionError",
    "SynthesisTask",
    "TaskQuarantinedError",
    "TaskResult",
    "TaskTimeoutError",
    "Timer",
    "arm_sites",
    "build_tasks",
    "fingerprint_task",
    "inject_faults",
    "maybe_fire",
    "reset_sites",
    "site_activations",
    "merge_stage_stats",
    "open_stage_cache",
    "open_store",
    "resolve_jobs",
    "run_task",
    "run_tasks",
]
