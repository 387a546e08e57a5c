"""Architectural-parameter sweep: the outer loop of Fig. 3.

"The NoC architectural parameters, such as frequency of operation, are
varied and the topology design process is repeated for each architectural
point." (Sec. IV) — and "a range of frequencies can also be swept by the
tool to explore more design points" (Sec. VIII-A).

:func:`sweep_frequencies` runs the full synthesis per frequency and merges
the design points into one result. Any other sweep (α, link width, switch
count range, or a cross product) is
``run_tasks(build_tasks(core_spec, comm_spec, ParameterGrid(...)))`` — the
same engine path, one result per grid point.

The sweep runs on the :mod:`repro.engine` executor: pass ``jobs``
(``1`` = serial, the default; ``0``/``None`` = one worker per CPU) to fan
the independent synthesis points across a process pool, and ``progress``
for per-point callbacks. Sweep parameters are validated *up front* — an
invalid value anywhere in the list aborts before any point is synthesized —
and parallel runs merge deterministically, point for point identical to a
serial run. Pass ``store`` (a :class:`~repro.engine.store.ResultStore`) to
serve already-computed points from disk and checkpoint fresh ones as they
finish — an interrupted sweep rerun with the same store resumes instead of
recomputing, with bit-identical merged results.

:func:`sweep_frequencies` also takes the engine's fault tolerance as one
``supervision=`` value (a :class:`~repro.engine.supervise.Supervision`):
its retry policy re-runs transiently failing points, its deadline bounds
each point's wall clock, and ``on_error="quarantine"`` lets the sweep
*complete* around a point that crashes its worker — the casualty is
excluded from the merged result (and reported in
``FrequencySweepResult.quarantined``) instead of aborting the campaign.
See ``docs/engine.md`` ("Failure semantics").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.config import SynthesisConfig
from repro.core.design_point import DesignPoint, SynthesisResult
from repro.engine.executor import ProgressFn, run_tasks
from repro.engine.grid import ParameterGrid, build_tasks
from repro.engine.supervise import Supervision
from repro.errors import SynthesisError
from repro.models.library import NocLibrary
from repro.spec.comm_spec import CommSpec
from repro.spec.core_spec import CoreSpec


@dataclass
class FrequencySweepResult:
    """Per-frequency synthesis results, merged.

    ``quarantined`` maps frequencies whose point was lost to supervision
    (worker crash, deadline expiry) under ``on_error="quarantine"`` to the
    error message; those frequencies are absent from ``per_frequency``.

    ``stage_cache`` aggregates the per-stage hit/miss/bytes counters of a
    stage-cached sweep (``{stage: {hits, misses, ...}}``, empty when stage
    caching was off — see :mod:`repro.engine.stagecache`).
    """

    per_frequency: Dict[float, SynthesisResult] = field(default_factory=dict)
    quarantined: Dict[float, str] = field(default_factory=dict)
    stage_cache: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def frequencies(self) -> List[float]:
        return sorted(self.per_frequency)

    def all_points(self) -> List[DesignPoint]:
        points: List[DesignPoint] = []
        for freq in self.frequencies:
            points.extend(self.per_frequency[freq].points)
        return points

    def best_power(self) -> DesignPoint:
        points = self.all_points()
        if not points:
            raise SynthesisError("no valid design point at any frequency")
        # Frequency joins the key so equal-power ties resolve to the lowest
        # frequency deterministically, not by dict insertion order.
        return min(
            points,
            key=lambda p: (
                p.total_power_mw, p.switch_count, p.config.frequency_mhz
            ),
        )

    def best_power_per_frequency(self) -> Dict[float, Optional[DesignPoint]]:
        out: Dict[float, Optional[DesignPoint]] = {}
        for freq, result in self.per_frequency.items():
            out[freq] = result.best_power() if result.points else None
        return out


def sweep_frequencies(
    core_spec: CoreSpec,
    comm_spec: CommSpec,
    frequencies_mhz: Sequence[float],
    library: Optional[NocLibrary] = None,
    config: Optional[SynthesisConfig] = None,
    *,
    jobs: Optional[int] = 1,
    progress: Optional[ProgressFn] = None,
    store=None,
    supervision: Optional[Supervision] = None,
    stage_cache_dir: Optional[str] = None,
    stage_cache_salt: Optional[str] = None,
) -> FrequencySweepResult:
    """Run the synthesis flow once per frequency (in parallel for jobs != 1).

    All frequencies are judged by :meth:`ParameterGrid.validate` before
    any synthesis starts (a :class:`SynthesisError` naming every bad value,
    a string or a bool included), so a bad value midway through the list
    cannot discard already-computed points.
    Frequencies whose link capacity cannot carry the largest single flow
    are merged as empty results, as before. ``supervision`` is the
    engine's :class:`~repro.engine.supervise.Supervision` (see
    :func:`repro.engine.run_tasks`); under ``on_error="quarantine"`` lost
    points land in ``FrequencySweepResult.quarantined``.

    ``stage_cache_dir`` (usually the store directory) arms per-stage
    memoization: only the frequency-sensitive stages re-run per point,
    everything else is served from disk with bit-identical results; the
    per-stage counters land in ``FrequencySweepResult.stage_cache``.
    """
    grid = ParameterGrid(frequencies_mhz=frequencies_mhz)
    grid.validate()  # the grid judges the values before they are floated
    freqs = [float(f) for f in grid.frequencies_mhz]
    tasks = build_tasks(
        core_spec, comm_spec, grid, config, library,
        stage_cache_dir=stage_cache_dir, stage_cache_salt=stage_cache_salt,
    )
    results = run_tasks(
        tasks, jobs=jobs, progress=progress, store=store,
        supervision=supervision,
    )
    sweep = FrequencySweepResult()
    for freq, task_result in zip(freqs, results):
        if task_result.error is not None:
            sweep.quarantined[freq] = str(task_result.error)
        else:
            sweep.per_frequency[freq] = task_result.result
        if task_result.stage_cache:
            from repro.engine.stagecache import merge_stage_stats

            merge_stage_stats(sweep.stage_cache, task_result.stage_cache)
    return sweep
