"""The SunFloor 3D synthesis driver — the full flow of Fig. 3.

For every candidate switch count the flow:

1. obtains a core-to-switch connectivity candidate (Phase 1 / Phase 2),
2. materialises the topology skeleton and applies the pruning rules,
3. computes deadlock-free, constraint-respecting paths (Sec. VI),
4. optimises switch positions with the Sec. VII LP,
5. inserts switches and TSV macros into the input floorplan (custom routine
   or the constrained standard-floorplanner baseline),
6. recomputes wire lengths from the final placement, re-checks every flow's
   latency constraint, and evaluates power / latency / area,
7. saves the design point if all constraints hold.

The flow itself lives in :mod:`repro.core.pipeline` — one fixed sequence
of :class:`~repro.core.pipeline.Stage` objects over an immutable
:class:`~repro.core.pipeline.FlowContext`, driven by the two candidate
phases, with candidate evaluation optionally fanned across the
:mod:`repro.engine` process pool. This module keeps the historical entry
points (:class:`SunFloor3D`, :func:`synthesize`) as thin wrappers over it;
see ``docs/pipeline.md`` for the stage model.
"""

from __future__ import annotations

from typing import Optional

from repro.core.assignment import Assignment
from repro.core.config import SynthesisConfig
from repro.core.design_point import DesignPoint, SynthesisResult
from repro.core.pipeline import (
    FlowContext,
    Pipeline,
    ProgressFn,
    StageTimings,
    run_synthesis,
)
from repro.graphs.comm_graph import CommGraph
from repro.models.library import NocLibrary
from repro.spec.comm_spec import CommSpec
from repro.spec.core_spec import CoreSpec


class SunFloor3D:
    """Application-specific 3-D NoC topology synthesis (the paper's tool).

    A convenience wrapper binding one (core spec, comm spec, library,
    config) context to the staged pipeline. Construction validates the
    specs; :meth:`synthesize` runs the flow.
    """

    def __init__(
        self,
        core_spec: CoreSpec,
        comm_spec: CommSpec,
        library: Optional[NocLibrary] = None,
        config: Optional[SynthesisConfig] = None,
    ) -> None:
        self.context = FlowContext.build(core_spec, comm_spec, library, config)
        #: Stage timings of the most recent :meth:`synthesize` call.
        self.last_stage_timings: Optional[StageTimings] = None
        #: Candidates lost to supervision (worker crash/deadline) in the
        #: most recent :meth:`synthesize` call, as ``(key, message)`` pairs.
        self.last_quarantined: list = []

    # -- context attributes (kept for API compatibility) -----------------------

    @property
    def core_spec(self) -> CoreSpec:
        return self.context.core_spec

    @property
    def comm_spec(self) -> CommSpec:
        return self.context.comm_spec

    @property
    def library(self) -> NocLibrary:
        return self.context.library

    @property
    def config(self) -> SynthesisConfig:
        return self.context.config

    @property
    def graph(self) -> CommGraph:
        return self.context.graph

    # -- public API ----------------------------------------------------------

    def synthesize(
        self,
        jobs: Optional[int] = 1,
        progress: Optional[ProgressFn] = None,
        timings: Optional[StageTimings] = None,
        supervision=None,
        stage_cache=None,
    ) -> SynthesisResult:
        """Run the configured flow and return all valid design points.

        ``jobs=1`` (default) evaluates candidates serially; ``jobs=N``
        fans independent candidates across the engine process pool with
        bit-identical results. Per-stage wall-clock totals land in
        ``timings`` (or ``self.last_stage_timings``).

        ``supervision`` (a :class:`repro.engine.supervise.Supervision`)
        supervises the parallel candidate fan-out; candidates lost to
        supervision under ``on_error="quarantine"`` are recorded in
        ``self.last_quarantined`` as ``(key, message)`` pairs.

        ``stage_cache`` (a :class:`repro.engine.stagecache.StageCache`)
        memoises individual stage outputs across runs, serving unchanged
        stages from disk with bit-identical results.
        """
        timings = timings if timings is not None else StageTimings()
        self.last_stage_timings = timings
        self.last_quarantined = []
        return run_synthesis(
            self.context,
            jobs=jobs,
            progress=progress,
            timings=timings,
            supervision=supervision,
            quarantine_log=self.last_quarantined,
            stage_cache=stage_cache,
        )

    def evaluate_assignment(self, assignment: Assignment) -> Optional[DesignPoint]:
        """Evaluate a single connectivity candidate (None if unmet)."""
        return Pipeline().evaluate(self.context, assignment).point


def synthesize(
    core_spec: CoreSpec,
    comm_spec: CommSpec,
    library: Optional[NocLibrary] = None,
    config: Optional[SynthesisConfig] = None,
    *,
    jobs: Optional[int] = 1,
    progress: Optional[ProgressFn] = None,
    timings: Optional[StageTimings] = None,
    stage_cache=None,
) -> SynthesisResult:
    """Convenience wrapper: build the context and run the staged pipeline."""
    return run_synthesis(
        FlowContext.build(core_spec, comm_spec, library, config),
        jobs=jobs,
        progress=progress,
        timings=timings,
        stage_cache=stage_cache,
    )
