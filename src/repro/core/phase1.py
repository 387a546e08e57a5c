"""Phase 1 core-to-switch connectivity (Algorithm 1).

Cores may connect to a switch in *any* layer: the partitioning graph PG is
cut into as many blocks as there are switches, so highly-communicating cores
share a switch regardless of their layers. When the resulting design cannot
meet the ``max_ill`` constraint, the scaled partitioning graph SPG is used
with θ swept over :data:`THETA_VALUES`, progressively discouraging
cross-layer clustering (Steps 11-19).

This module only produces :class:`~repro.core.assignment.Assignment`
candidates, through the ``partition`` stage of :mod:`repro.core.pipeline`,
whose Phase 1 driver implements the Unmet-set retry loop.
"""

from __future__ import annotations

from typing import Optional, Tuple

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
    graph: CommGraph,
    alpha: float,
    switch_layer_mode: str,
    switch_count: int,
    theta: Optional[float] = None,
) -> Assignment:
    """The assignment for one switch count: a cut of the PG (Steps 4-7),
    or with ``theta`` of the SPG used for unmet counts (Steps 12-19)."""
    if theta is None:
        weights = build_pg(graph, alpha)
    else:
        weights = build_spg(graph, alpha, theta, THETA_MAX)
    blocks = kway_min_cut(graph.n, weights, switch_count)
    return assignment_from_blocks(
        blocks, graph, switch_layer_mode, phase="phase1", theta=theta
    )
