"""Frozen pre-optimisation routing: the naive Algorithm 3 baseline.

This module preserves, verbatim, the routing hot path as it existed before
the :class:`~repro.core.paths._RoutingContext` overhaul: a Dijkstra that
re-evaluates the full Algorithm 3 edge cost (library model calls included)
on every relaxation, and the rebuild-the-adjacency channel-dependency-graph
cycle check. It is the regression oracle: tests assert the optimised
:func:`repro.core.paths.compute_paths` produces *identical* routes, link
loads and port counts. Routing time in the whole flow is tracked by the
end-to-end benchmark (``python3 perfbench/run.py``, ``stage.routing.s``).

The unchanged helpers (:func:`~repro.core.paths._edge_cost`,
:func:`~repro.core.paths._make_cost_model`,
:func:`~repro.core.paths._estimate_latency`, the ban-edge picker and the
indirect-switch inserter) are shared with :mod:`repro.core.paths` — they
were not touched by the optimisation, so sharing keeps the baseline honest
without duplicating them.

Do not "optimise" this module.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.config import SynthesisConfig
from repro.core.paths import (
    INF,
    _CostModel,
    _edge_cost,
    _estimate_latency,
    _make_cost_model,
    _pick_ban_edge,
    _try_add_indirect_switch,
)
from repro.errors import PathComputationError
from repro.graphs.comm_graph import CommGraph
from repro.models.library import NocLibrary
from repro.noc.topology import Topology, switch_ep
from repro.units import flits_per_second


class LegacyChannelDependencyGraph:
    """The pre-index CDG: tentative checks copy the whole adjacency."""

    def __init__(self) -> None:
        self._succ: Dict[Hashable, Dict[int, Set[int]]] = {}

    @staticmethod
    def _path_edges(link_ids: Sequence[int]) -> List[Tuple[int, int]]:
        return [(a, b) for a, b in zip(link_ids, link_ids[1:])]

    def add_path(self, link_ids: Sequence[int], message_class: Hashable) -> None:
        adj = self._succ.setdefault(message_class, {})
        for u, v in self._path_edges(link_ids):
            adj.setdefault(u, set()).add(v)

    def creates_cycle(
        self, link_ids: Sequence[int], message_class: Hashable
    ) -> bool:
        new_edges = self._path_edges(link_ids)
        if not new_edges:
            return False
        adj = self._succ.get(message_class, {})
        combined: Dict[int, Set[int]] = {u: set(vs) for u, vs in adj.items()}
        for u, v in new_edges:
            combined.setdefault(u, set()).add(v)
        start_nodes = {u for u, _ in new_edges}
        return _legacy_has_cycle(combined, start_nodes)


def _legacy_has_cycle(
    adj: Dict[int, Set[int]], start_nodes: Iterable[int]
) -> bool:
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[int, int] = {}
    for start in sorted(start_nodes):
        if color.get(start, WHITE) != WHITE:
            continue
        stack: List[Tuple[int, Iterable[int]]] = [
            (start, iter(sorted(adj.get(start, ()))))
        ]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                state = color.get(nxt, WHITE)
                if state == GRAY:
                    return True
                if state == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(sorted(adj.get(nxt, ())))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return False


def naive_dijkstra(
    topology: Topology,
    library: NocLibrary,
    config: SynthesisConfig,
    model: _CostModel,
    src_sw: int,
    dst_sw: int,
    bandwidth: float,
    rate: float,
    banned: Set[Tuple[int, int]],
    min_hop: bool = False,
) -> Optional[List[int]]:
    """Min-cost (or min-hop) path, recomputing every edge cost in full."""
    n = len(topology.switches)
    dist = {src_sw: 0.0}
    prev: Dict[int, int] = {}
    heap: List[Tuple[float, int]] = [(0.0, src_sw)]
    done: Set[int] = set()

    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        if u == dst_sw:
            break
        done.add(u)
        for v in range(n):
            if v == u or v in done or (u, v) in banned:
                continue
            cost, _ = _edge_cost(
                topology, library, config, model, u, v, bandwidth, rate
            )
            if cost == INF:
                continue
            step = (1.0 + cost * 1e-9) if min_hop else cost
            nd = d + step
            if nd < dist.get(v, INF):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))

    if dst_sw not in dist:
        return None
    path = [dst_sw]
    while path[-1] != src_sw:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def _naive_route_flow(
    topology: Topology,
    graph: CommGraph,
    library: NocLibrary,
    config: SynthesisConfig,
    model: _CostModel,
    cdg: LegacyChannelDependencyGraph,
    src: int,
    dst: int,
    flow,
    core_centers: Mapping[int, Tuple[float, float]],
) -> bool:
    src_sw = topology.core_to_switch[src]
    dst_sw = topology.core_to_switch[dst]
    bandwidth = flow.bandwidth
    rate = flits_per_second(bandwidth, topology.width_bits)

    inj = topology.injection_link(src)
    ej = topology.ejection_link(dst)
    if inj.load_mbps + bandwidth > model.capacity + 1e-9:
        return False
    if ej.load_mbps + bandwidth > model.capacity + 1e-9:
        return False

    banned: Set[Tuple[int, int]] = set()
    for _ in range(max(1, config.deadlock_retries)):
        if src_sw == dst_sw:
            path_switches: Optional[List[int]] = [src_sw]
        else:
            path_switches = naive_dijkstra(
                topology, library, config, model, src_sw, dst_sw,
                bandwidth, rate, banned,
            )
        if path_switches is None:
            return False

        if (
            _estimate_latency(
                topology, library, path_switches, src, dst, core_centers
            )
            > flow.latency + 1e-9
        ):
            alt = (
                naive_dijkstra(
                    topology, library, config, model, src_sw, dst_sw,
                    bandwidth, rate, banned, min_hop=True,
                )
                if src_sw != dst_sw
                else [src_sw]
            )
            if alt is None:
                return False
            if (
                _estimate_latency(topology, library, alt, src, dst, core_centers)
                > flow.latency + 1e-9
            ):
                return False
            path_switches = alt

        plan: List[Tuple[int, int, Optional[int]]] = []
        tentative_ids: List[int] = [inj.id]
        next_fake = -1
        for u, v in zip(path_switches, path_switches[1:]):
            chosen = None
            for link in topology.links_between(switch_ep(u), switch_ep(v)):
                if link.load_mbps + bandwidth <= model.capacity + 1e-9:
                    if chosen is None or link.load_mbps < chosen.load_mbps:
                        chosen = link
            if chosen is not None:
                plan.append((u, v, chosen.id))
                tentative_ids.append(chosen.id)
            else:
                plan.append((u, v, None))
                tentative_ids.append(next_fake)
                next_fake -= 1
        tentative_ids.append(ej.id)

        if cdg.creates_cycle(tentative_ids, flow.message_type):
            edge_to_ban = _pick_ban_edge(path_switches, banned)
            if edge_to_ban is None:
                return False
            banned.add(edge_to_ban)
            continue

        real_ids: List[int] = [inj.id]
        for u, v, link_id in plan:
            if link_id is None:
                link = topology.add_switch_link(u, v)
                real_ids.append(link.id)
            else:
                real_ids.append(link_id)
        real_ids.append(ej.id)
        topology.record_route((src, dst), real_ids, list(path_switches), bandwidth)
        cdg.add_path(real_ids, flow.message_type)
        return True

    return False


def naive_compute_paths(
    topology: Topology,
    graph: CommGraph,
    library: NocLibrary,
    config: SynthesisConfig,
    core_centers: Mapping[int, Tuple[float, float]],
) -> None:
    """Route every flow with the pre-optimisation hot path (reference)."""
    model = _make_cost_model(topology, graph, library, config)
    cdg = LegacyChannelDependencyGraph()

    if config.flow_order == "bandwidth_desc":
        flows = sorted(
            graph.edges.items(), key=lambda kv: (-kv[1].bandwidth, kv[0])
        )
    elif config.flow_order == "bandwidth_asc":
        flows = sorted(
            graph.edges.items(), key=lambda kv: (kv[1].bandwidth, kv[0])
        )
    else:
        flows = sorted(graph.edges.items(), key=lambda kv: kv[0])
    indirect_layers: Set[int] = set()

    for (src, dst), flow in flows:
        if flow.bandwidth > model.capacity:
            raise PathComputationError(
                f"flow {src}->{dst} demands {flow.bandwidth} MB/s, above link "
                f"capacity {model.capacity:.1f} MB/s"
            )
        routed = _naive_route_flow(
            topology, graph, library, config, model, cdg,
            src, dst, flow, core_centers,
        )
        while not routed:
            added = _try_add_indirect_switch(
                topology, config, library, src, dst, indirect_layers
            )
            if not added:
                raise PathComputationError(
                    f"no valid path for flow {src}->{dst} "
                    f"(bw {flow.bandwidth} MB/s, lat <= {flow.latency} cycles)"
                )
            routed = _naive_route_flow(
                topology, graph, library, config, model, cdg,
                src, dst, flow, core_centers,
            )

    topology.validate_routes()
    over = topology.check_capacity(config.utilisation_cap)
    if over:
        raise PathComputationError(f"links over capacity after routing: {over}")
