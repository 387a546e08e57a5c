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
from typing import Iterator, List

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


def phase2_candidate(
    graph: CommGraph,
    config: SynthesisConfig,
    library: NocLibrary,
    increment: int,
) -> Assignment:
    """The Phase 2 assignment at iteration ``increment`` of Algorithm 2."""
    base = minimum_switches_per_layer(graph, config, library)
    blocks: List[tuple] = []
    layers: List[int] = []
    for layer in range(graph.num_layers):
        members, weights = build_lpg(graph, layer, config.alpha)
        np_ = min(base[layer] + increment, len(members))
        local_blocks = kway_min_cut(len(members), weights, np_)
        for block in local_blocks:
            blocks.append(tuple(members[l] for l in block))
            layers.append(layer)
    return Assignment(
        blocks=tuple(tuple(sorted(b)) for b in blocks),
        switch_layers=tuple(layers),
        phase="phase2",
    )


def phase2_candidates(
    graph: CommGraph, config: SynthesisConfig, library: NocLibrary
) -> Iterator[Assignment]:
    """All Phase 2 candidates (Step 6 loop), respecting switch_count_range."""
    base = minimum_switches_per_layer(graph, config, library)
    layer_sizes = [
        sum(1 for l in graph.layers if l == layer)
        for layer in range(graph.num_layers)
    ]
    max_increment = max(
        size - ni for size, ni in zip(layer_sizes, base)
    )
    for increment in range(0, max_increment + 1):
        candidate = phase2_candidate(graph, config, library, increment)
        if config.switch_count_range is not None:
            lo, hi = config.switch_count_range
            if not lo <= candidate.num_switches <= hi:
                continue
        yield candidate
