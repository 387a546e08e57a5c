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

The flow itself is :func:`repro.core.pipeline.run_synthesis` — one fixed
sequence of :class:`~repro.core.pipeline.Stage` objects over an immutable
:class:`~repro.core.pipeline.FlowContext`, driven by the two candidate
phases, with candidate evaluation optionally fanned across the
:mod:`repro.engine` process pool. :func:`synthesize` is its spec-level
form; see ``docs/pipeline.md`` for the stage model.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import SynthesisConfig
from repro.core.design_point import SynthesisResult
from repro.core.pipeline import FlowContext, run_synthesis
from repro.models.library import NocLibrary
from repro.spec.comm_spec import CommSpec
from repro.spec.core_spec import CoreSpec


def synthesize(
    core_spec: CoreSpec,
    comm_spec: CommSpec,
    library: Optional[NocLibrary] = None,
    config: Optional[SynthesisConfig] = None,
    **run_kwargs,
) -> SynthesisResult:
    """Build the :class:`FlowContext` of one spec pair and run the flow.

    Every keyword (``jobs``, ``progress``, ``timings``, ``supervision``,
    ``quarantine_log``, ``stage_cache``) goes to :func:`run_synthesis`
    unchanged. Invalid specs raise :class:`~repro.errors.SpecError` before
    any stage runs.
    """
    return run_synthesis(
        FlowContext.build(core_spec, comm_spec, library, config), **run_kwargs
    )
