"""Shared machinery for the experiment runners.

* :class:`ExperimentResult` — rows + column order + a plain-text table
  renderer (the "same rows/series the paper reports").
* :func:`default_config_for` — the per-benchmark synthesis configuration
  used throughout the evaluation (400 MHz, 32-bit links, max_ill = 25, a
  switch-count sweep wide enough for the benchmark's size).
* :func:`synthesize_cached` — process-level memoisation of synthesis runs,
  since several figures reuse the same best-power design points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence

from repro.bench.registry import get_benchmark
from repro.core.config import SynthesisConfig
from repro.core.design_point import SynthesisResult
from repro.core.pipeline import FlowContext, run_synthesis

Row = Dict[str, object]


@dataclass
class ExperimentResult:
    """Rows of one reproduced table/figure."""

    name: str
    columns: List[str]
    rows: List[Row] = field(default_factory=list)
    notes: str = ""

    def add(self, **values: object) -> None:
        self.rows.append(values)

    def column(self, key: str) -> List[object]:
        return [row.get(key) for row in self.rows]

    def to_text(self) -> str:
        """Render as an aligned plain-text table."""
        headers = list(self.columns)
        table: List[List[str]] = [headers]
        for row in self.rows:
            table.append([_fmt(row.get(col)) for col in headers])
        widths = [
            max(len(line[c]) for line in table) for c in range(len(headers))
        ]
        lines = [f"== {self.name} =="]
        if self.notes:
            lines.append(self.notes)
        for r, line in enumerate(table):
            lines.append(
                "  ".join(cell.rjust(widths[c]) for c, cell in enumerate(line))
            )
            if r == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)

    def print_table(self) -> None:
        print(self.to_text())


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def default_config_for(
    benchmark_name: str,
    *,
    max_ill: int = 25,
    phase: str = "auto",
    floorplanner: str = "custom",
    switch_count_range: Optional[Sequence[int]] = None,
    frequency_mhz: float = 400.0,
) -> SynthesisConfig:
    """The evaluation-wide synthesis configuration for one benchmark.

    The switch-count sweep is sized to the benchmark: large designs need
    more switches to satisfy the switch-size limit, small ones saturate
    early (matching the ranges of Figs. 10-11).
    """
    bench = get_benchmark(benchmark_name)
    if switch_count_range is None:
        if bench.num_cores > 40:
            switch_count_range = (3, 20)
        else:
            switch_count_range = (3, 14)
    return SynthesisConfig(
        frequency_mhz=frequency_mhz,
        max_ill=max_ill,
        phase=phase,
        floorplanner=floorplanner,
        switch_count_range=tuple(switch_count_range),
    )


@lru_cache(maxsize=None)
def synthesize_cached(
    benchmark_name: str,
    dims: str,
    config: SynthesisConfig,
) -> SynthesisResult:
    """Run (or fetch) a synthesis for a benchmark variant.

    Args:
        benchmark_name: Registry name (e.g. "d26_media").
        dims: "3d" or "2d"; see :meth:`repro.bench.builder.Benchmark.variant`.
        config: Frozen synthesis configuration (hashable, so it can key a cache).
    """
    bench = get_benchmark(benchmark_name)
    core_spec, config = bench.variant(dims, config)
    ctx = FlowContext.build(core_spec, bench.comm_spec, config=config)
    return run_synthesis(ctx)
