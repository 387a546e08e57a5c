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
* :func:`~repro.core.synthesis2d.synthesize_2d` — the 2-D synthesis flow of
  Murali et al. [16] used as the comparison baseline.
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
from repro.core.synthesis2d import synthesize_2d
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
    "synthesize_2d",
    "synthesize_mesh",
]
