"""The 2-D synthesis flow (the comparison baseline of Murali et al. [16]).

"For comparative purposes, we also apply a 2-D synthesis flow developed
earlier by [16] for a corresponding 2-D implementation of the benchmarks"
(Sec. I). The 2-D flow is the same machinery with a single layer: the PG has
no inter-layer edges, no TSV constraints apply, and all links are planar.

The caller provides a *2-D floorplanned* core specification (all cores on
layer 0, re-floorplanned onto one die — the benchmark generators produce
this variant alongside the 3-D one).
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import SynthesisConfig
from repro.core.design_point import SynthesisResult
from repro.core.synthesis import synthesize
from repro.errors import SpecError
from repro.models.library import NocLibrary
from repro.spec.comm_spec import CommSpec
from repro.spec.core_spec import CoreSpec


def synthesize_2d(
    core_spec: CoreSpec,
    comm_spec: CommSpec,
    library: Optional[NocLibrary] = None,
    config: Optional[SynthesisConfig] = None,
) -> SynthesisResult:
    """Run the 2-D synthesis flow on a single-layer core specification."""
    if core_spec.num_layers != 1:
        raise SpecError(
            "synthesize_2d expects a single-layer core specification "
            f"(got {core_spec.num_layers} layers); use the benchmark's 2-D "
            "floorplan variant"
        )
    base = config if config is not None else SynthesisConfig()
    # In 2-D no link can cross a layer, so the TSV constraints are inert;
    # phase1 is the [16] flow (phase2's layer-by-layer restriction is
    # meaningless with one layer).
    cfg = base.with_(phase="phase1")
    return synthesize(core_spec, comm_spec, library, cfg)
