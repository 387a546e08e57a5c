"""Fig. 17 — Phase 2 power relative to Phase 1 across all benchmarks.

"Phase 1 can generate topologies that lead to a 40% reduction in NoC power
consumption, when compared to Phase 2. However, Phase 2 can generate
topologies with a much tighter inter-layer link constraint."
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bench.registry import TABLE1_BENCHMARKS
from repro.core.config import SynthesisConfig
from repro.errors import SynthesisError
from repro.experiments.common import (
    ExperimentResult,
    default_config_for,
    synthesize_cached,
)


def run_phase_comparison(
    benchmarks: Sequence[str] = TABLE1_BENCHMARKS + ("d26_media",),
    config: Optional[SynthesisConfig] = None,
) -> ExperimentResult:
    """One row per benchmark: phase1/phase2 best power and the ratio."""
    table = ExperimentResult(
        name="Fig. 17: Phase 2 power relative to Phase 1",
        columns=[
            "benchmark", "phase1_mw", "phase2_mw", "ratio",
            "vlinks_p1", "vlinks_p2",
        ],
        notes="ratio > 1: the layer-by-layer restriction costs power; "
              "Phase 2 uses far fewer inter-layer links",
    )
    for name in benchmarks:
        base = config if config is not None else default_config_for(name)
        best = {}
        for phase in ("phase1", "phase2"):
            try:
                result = synthesize_cached(name, "3d", base.with_(phase=phase))
                best[phase] = result.best_power()
            except SynthesisError:
                best[phase] = None
        p1, p2 = best["phase1"], best["phase2"]
        table.add(
            benchmark=name,
            phase1_mw=p1.total_power_mw if p1 else None,
            phase2_mw=p2.total_power_mw if p2 else None,
            ratio=(p2.total_power_mw / p1.total_power_mw) if p1 and p2 else None,
            vlinks_p1=p1.metrics.num_vertical_links if p1 else None,
            vlinks_p2=p2.metrics.num_vertical_links if p2 else None,
        )
    return table
