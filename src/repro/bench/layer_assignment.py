"""Layer assignment of cores for the 3-D benchmark variants.

"The assignment of cores to different 3-D layers ... are taken as inputs for
the synthesis process" (Sec. I) — the paper's benchmarks were assigned
manually. We provide two deterministic strategies:

* ``"min_cut"`` (default) — balanced min-cut of the communication graph into
  L blocks: heavily-communicating cores share a layer, keeping most traffic
  on short intra-layer wires and the TSV budget comfortable.
* ``"stack"`` — pairs heavily-communicating cores *across* layers ("highly
  communicating cores are placed one above the other", Example 1): a greedy
  matching pulls the strongest partners of each block into the other layers.

Both return a list ``layers[i]`` with balanced layer populations.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import SpecError
from repro.graphs.comm_graph import CommGraph
from repro.graphs.partition import kway_min_cut

STRATEGIES = ("min_cut", "stack")


def assign_layers(
    graph: CommGraph,
    num_layers: int,
    *,
    strategy: str = "min_cut",
    seed: int = 0,
    areas: List[float] = None,
) -> List[int]:
    """Assign every core to one of ``num_layers`` layers.

    ``areas`` (one per core) balances the *silicon area* per layer instead of
    the core count — all dies of a wafer-to-wafer stack share one outline, so
    an area-unbalanced assignment wastes the smaller dies. Count balance is
    used when areas are omitted. (Only the "stack" strategy is area-aware;
    "min_cut" balances counts through the partitioner.)
    """
    if num_layers < 1:
        raise SpecError(f"num_layers must be >= 1, got {num_layers}")
    if num_layers > graph.n:
        raise SpecError(
            f"cannot spread {graph.n} cores over {num_layers} layers"
        )
    if strategy not in STRATEGIES:
        raise SpecError(f"unknown layer strategy {strategy!r} (use {STRATEGIES})")
    if areas is not None and len(areas) != graph.n:
        raise SpecError(f"need {graph.n} areas, got {len(areas)}")
    if num_layers == 1:
        return [0] * graph.n

    weights = _directed_to_weights(graph)
    if strategy == "min_cut":
        blocks = kway_min_cut(graph.n, weights, num_layers)
        layers = [0] * graph.n
        for layer, block in enumerate(blocks):
            for core in block:
                layers[core] = layer
        return layers
    return _stack_assignment(graph, weights, num_layers, seed, areas)


def _directed_to_weights(graph: CommGraph) -> Dict[Tuple[int, int], float]:
    weights: Dict[Tuple[int, int], float] = {}
    for i, j, flow in graph.flows():
        key = (min(i, j), max(i, j))
        weights[key] = weights.get(key, 0.0) + flow.bandwidth
    return weights


def _stack_assignment(
    graph: CommGraph,
    weights: Dict[Tuple[int, int], float],
    num_layers: int,
    seed: int,
    areas: List[float] = None,
) -> List[int]:
    """Greedy stacking: strongest unplaced partner goes to the next layer.

    With ``areas`` given, layer fullness is measured in silicon area (with a
    small slack) instead of core count.
    """
    n = graph.n
    if areas is None:
        areas = [1.0] * n
    total_area = sum(areas)
    cap_area = total_area / num_layers * 1.06  # slack for lumpy core sizes
    capacity = [cap_area] * num_layers
    layers = [-1] * n

    strength = [0.0] * n
    neighbours: Dict[int, List[Tuple[float, int]]] = {i: [] for i in range(n)}
    for (i, j), w in weights.items():
        strength[i] += w
        strength[j] += w
        neighbours[i].append((w, j))
        neighbours[j].append((w, i))
    for i in range(n):
        neighbours[i].sort(key=lambda t: (-t[0], t[1]))

    order = sorted(range(n), key=lambda i: (-strength[i], i))
    fill = [0.0] * num_layers
    for seed_core in order:
        if layers[seed_core] != -1:
            continue
        # Place the seed in the emptiest layer, then stack its strongest
        # unplaced partners into the remaining layers round-robin.
        layer = min(range(num_layers), key=lambda l: (fill[l], l))
        layers[seed_core] = layer
        fill[layer] += areas[seed_core]
        next_layer = (layer + 1) % num_layers
        placed = 0
        for _w, partner in neighbours[seed_core]:
            if placed >= num_layers - 1:
                break
            if layers[partner] != -1:
                continue
            tries = 0
            while (
                fill[next_layer] + areas[partner] > capacity[next_layer]
                and tries < num_layers
            ):
                next_layer = (next_layer + 1) % num_layers
                tries += 1
            if fill[next_layer] + areas[partner] > capacity[next_layer]:
                break
            layers[partner] = next_layer
            fill[next_layer] += areas[partner]
            next_layer = (next_layer + 1) % num_layers
            placed += 1

    # Any cores left over go to the least-filled layers.
    for i in range(n):
        if layers[i] == -1:
            layer = min(
                range(num_layers),
                key=lambda l: (fill[l] - capacity[l], l),
            )
            layers[i] = layer
            fill[layer] += areas[i]
    return layers
