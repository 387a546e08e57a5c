"""Phase 2 core-to-switch connectivity (Algorithm 2, layer-by-layer).

Cores connect only to switches in their own layer; switches link only within
a layer or to adjacent layers. Each layer starts with the minimum number of
switches its core count requires at the target frequency
(``ceil(cores / max_sw_size)``, Steps 2-4) and all layers grow together by
one switch per iteration (pruning rule 2 of Sec. V-C), capped at one switch
per core.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.core.assignment import Assignment
from repro.core.config import SynthesisConfig
from repro.core.partition_graphs import build_lpg
from repro.errors import SynthesisError
from repro.graphs.comm_graph import CommGraph
from repro.graphs.partition import kway_min_cut
from repro.models.library import NocLibrary


def minimum_switches_per_layer(
    graph: CommGraph, config: SynthesisConfig, library: NocLibrary
) -> List[int]:
    """``ni_j = ceil(cores_in_layer_j / max_sw_size)`` (Steps 2-4)."""
    max_size = library.switch.max_switch_size(config.frequency_mhz)
    counts = []
    for layer in range(graph.num_layers):
        n_cores = sum(1 for l in graph.layers if l == layer)
        if n_cores == 0:
            raise SynthesisError(f"layer {layer} has no cores")
        counts.append(max(1, math.ceil(n_cores / max_size)))
    return counts


def phase2_switch_counts(
    graph: CommGraph, config: SynthesisConfig, library: NocLibrary
) -> List[Tuple[int, ...]]:
    """The per-layer switch counts of every Phase 2 candidate (Step 6 loop)
    whose total lies in ``switch_count_range``, without partitioning.

    Iteration ``inc`` gives layer j ``min(ni_j + inc, cores in layer j)``
    switches; :func:`~repro.graphs.partition.kway_min_cut` returns exactly
    that many non-empty blocks, so the sum is the candidate's switch count,
    and it rises strictly with ``inc``.
    """
    base = minimum_switches_per_layer(graph, config, library)
    layer_sizes = [
        sum(1 for l in graph.layers if l == layer)
        for layer in range(graph.num_layers)
    ]
    max_increment = max(
        size - ni for size, ni in zip(layer_sizes, base)
    )
    plans = []
    for increment in range(0, max_increment + 1):
        counts = tuple(
            min(ni + increment, size) for ni, size in zip(base, layer_sizes)
        )
        if config.switch_count_range is not None:
            lo, hi = config.switch_count_range
            if not lo <= sum(counts) <= hi:
                continue
        plans.append(counts)
    return plans


def phase2_candidate(
    graph: CommGraph, alpha: float, switch_counts: Sequence[int]
) -> Assignment:
    """The Phase 2 assignment with ``switch_counts[j]`` switches in layer j,
    each layer's LPG cut on its own (Algorithm 2)."""
    blocks: List[tuple] = []
    layers: List[int] = []
    for layer, count in enumerate(switch_counts):
        members, weights = build_lpg(graph, layer, alpha)
        local_blocks = kway_min_cut(len(members), weights, count)
        for block in local_blocks:
            blocks.append(tuple(members[l] for l in block))
            layers.append(layer)
    return Assignment(
        blocks=tuple(tuple(sorted(b)) for b in blocks),
        switch_layers=tuple(layers),
        phase="phase2",
    )
