"""Shared configuration for the benchmark harness.

Every module regenerates one table/figure of the paper (see the index in
``repro.experiments``): the benchmarked callable runs the experiment, the assertions check
the *shape* of the result against the paper's claims, and the rendered table
is echoed so ``pytest benchmarks/ --benchmark-only -s`` reproduces the
paper's rows.

Synthesis runs are memoised per process (repro.experiments.common), so a
figure that reuses another figure's design points does not pay twice.
"""

from __future__ import annotations

import pytest

from repro.core.config import SynthesisConfig

#: Evaluation-wide configuration (Sec. VIII-A): 400 MHz, 32-bit links,
#: max_ill 25. Switch sweeps sized per benchmark by default_config_for.
PAPER_MAX_ILL = 25


@pytest.fixture(scope="session")
def paper_config() -> SynthesisConfig:
    return SynthesisConfig(max_ill=PAPER_MAX_ILL, switch_count_range=(3, 14))


def echo(table) -> None:
    """Print a rendered experiment table (visible with -s)."""
    print()
    print(table.to_text())
