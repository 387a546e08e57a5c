"""Phase 1 core-to-switch connectivity (Algorithm 1).

Cores may connect to a switch in *any* layer: the partitioning graph PG is
cut into as many blocks as there are switches, so highly-communicating cores
share a switch regardless of their layers. When the resulting design cannot
meet the ``max_ill`` constraint, the scaled partitioning graph SPG is used
with θ swept over :data:`THETA_VALUES`, progressively discouraging
cross-layer clustering (Steps 11-19).

This module only produces :class:`~repro.core.assignment.Assignment`
candidates; building, routing and evaluating them is the synthesis driver's
job (:mod:`repro.core.synthesis`), which implements the Unmet-set retry loop.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.core.assignment import Assignment, assignment_from_blocks
from repro.core.config import SynthesisConfig
from repro.core.partition_graphs import build_pg, build_spg
from repro.graphs.comm_graph import CommGraph
from repro.graphs.partition import kway_min_cut

#: The SPG scaling sweep of Algorithm 1: θ from 1 to 15 in steps of 3
#: (Sec. V-A). ``THETA_MAX`` normalises the added inter-layer penalty edges
#: of the SPG (:func:`~repro.core.partition_graphs.build_spg`).
THETA_VALUES = (1.0, 4.0, 7.0, 10.0, 13.0)
THETA_MAX = 15.0


def switch_count_bounds(graph: CommGraph, config: SynthesisConfig) -> Tuple[int, int]:
    """The switch-count sweep range: 1..n, clipped by the config."""
    lo, hi = 1, graph.n
    if config.switch_count_range is not None:
        clo, chi = config.switch_count_range
        lo = max(lo, clo)
        hi = min(hi, chi)
    return lo, hi


def phase1_candidate(
    graph: CommGraph, config: SynthesisConfig, switch_count: int
) -> Assignment:
    """The PG-based assignment for one switch count (Steps 4-7)."""
    pg = build_pg(graph, config.alpha)
    blocks = kway_min_cut(graph.n, pg, switch_count)
    return assignment_from_blocks(
        blocks, graph, config.switch_layer_mode, phase="phase1"
    )


def phase1_scaled_candidate(
    graph: CommGraph, config: SynthesisConfig, switch_count: int, theta: float
) -> Assignment:
    """The SPG-based assignment used for unmet switch counts (Steps 12-19)."""
    spg = build_spg(graph, config.alpha, theta, THETA_MAX)
    blocks = kway_min_cut(graph.n, spg, switch_count)
    return assignment_from_blocks(
        blocks, graph, config.switch_layer_mode, phase="phase1", theta=theta
    )


def phase1_candidates(
    graph: CommGraph, config: SynthesisConfig
) -> Iterator[Assignment]:
    """All first-round (unscaled) Phase 1 candidates, one per switch count."""
    lo, hi = switch_count_bounds(graph, config)
    for count in range(lo, hi + 1):
        yield phase1_candidate(graph, config, count)
