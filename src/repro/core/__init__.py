"""The SunFloor 3D synthesis core — the paper's primary contribution.

Public entry points:

* :func:`~repro.core.pipeline.run_synthesis` — the full Fig. 3 flow over
  a :class:`~repro.core.pipeline.FlowContext` (or
  :func:`~repro.core.synthesis.synthesize` from a spec pair): sweep switch
  counts, establish core-to-switch connectivity (Phase 1 /
  Algorithm 1 or Phase 2 / Algorithm 2), compute deadlock-free paths under
  the TSV and switch-size constraints (Sec. VI / Algorithm 3), optimise
  switch positions with the Sec. VII LP, insert the network components into
  the floorplan and evaluate every valid design point.
* :mod:`repro.core.pipeline` — the staged form of that flow:
  :class:`~repro.core.pipeline.Stage` objects over an immutable
  :class:`~repro.core.pipeline.FlowContext` in one fixed order, per-stage
  timings and ``jobs=N`` candidate fan-out (``docs/pipeline.md``).
* The 2-D synthesis flow of Murali et al. [16], the comparison baseline, is
  this same flow run on the single-die core spec and Phase 1 configuration
  that :meth:`repro.bench.builder.Benchmark.variant` returns for ``"2d"``.
* :func:`~repro.core.mesh_baseline.synthesize_mesh` — the optimised-mesh
  baseline of Sec. VIII-E.
"""

from repro.core.config import SynthesisConfig
from repro.core.design_point import DesignPoint, SynthesisResult
from repro.core.pipeline import (
    FlowContext,
    Pipeline,
    Stage,
    StageTimings,
    run_synthesis,
)
from repro.core.synthesis import synthesize
from repro.core.mesh_baseline import synthesize_mesh

__all__ = [
    "SynthesisConfig",
    "DesignPoint",
    "SynthesisResult",
    "FlowContext",
    "Pipeline",
    "Stage",
    "StageTimings",
    "run_synthesis",
    "synthesize",
    "synthesize_mesh",
]
