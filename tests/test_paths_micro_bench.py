"""Micro-benchmark regression for the compute_paths hot-path overhaul.

Keeps a naive reference implementation of the Algorithm 3 routing loop *in
the test* — a Dijkstra that re-evaluates the full edge cost on every
relaxation via the plain :func:`repro.core.paths._edge_cost`, with the
copy-based legacy CDG — and asserts the optimised
:func:`repro.core.paths.compute_paths` produces identical routes, loads and
port counts on the D_26-style synthetic graph, across flow-count scaling
steps. Timings are printed (visible with ``-s``) but not gated; routing
time is tracked end to end as ``stage.routing.s`` by ``perfbench/run.py``.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro.bench.synthetic import synthetic_benchmark
from repro.core.config import SynthesisConfig
from repro.core.paths import (
    INF,
    _edge_cost,
    _estimate_latency,
    _make_cost_model,
    _pick_ban_edge,
    _try_add_indirect_switch,
    build_topology_skeleton,
    compute_paths,
)
from repro.errors import PathComputationError
from repro.graphs.comm_graph import build_comm_graph
from repro.models.library import default_library
from repro.noc.export import topology_to_dict
from repro.noc.topology import switch_ep
from repro.units import flits_per_second


# --------------------------------------------------------------------------
# Naive reference: the pre-optimisation routing loop, kept here verbatim.
# --------------------------------------------------------------------------

class _NaiveCDG:
    def __init__(self):
        self._succ = {}

    @staticmethod
    def _path_edges(link_ids):
        return [(a, b) for a, b in zip(link_ids, link_ids[1:])]

    def add_path(self, link_ids, message_class):
        adj = self._succ.setdefault(message_class, {})
        for u, v in self._path_edges(link_ids):
            adj.setdefault(u, set()).add(v)

    def creates_cycle(self, link_ids, message_class):
        new_edges = self._path_edges(link_ids)
        if not new_edges:
            return False
        adj = self._succ.get(message_class, {})
        combined = {u: set(vs) for u, vs in adj.items()}
        for u, v in new_edges:
            combined.setdefault(u, set()).add(v)
        color: Dict[int, int] = {}
        for start in sorted({u for u, _ in new_edges}):
            if color.get(start, 0):
                continue
            stack = [(start, iter(sorted(combined.get(start, ()))))]
            color[start] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    state = color.get(nxt, 0)
                    if state == 1:
                        return True
                    if state == 0:
                        color[nxt] = 1
                        stack.append((nxt, iter(sorted(combined.get(nxt, ())))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    stack.pop()
        return False


def _naive_dijkstra(
    topology, library, config, model, src_sw, dst_sw, bandwidth, rate,
    banned, min_hop=False,
) -> Optional[List[int]]:
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
    topology, graph, library, config, model, cdg, src, dst, flow, centers
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
            path_switches = _naive_dijkstra(
                topology, library, config, model, src_sw, dst_sw,
                bandwidth, rate, banned,
            )
        if path_switches is None:
            return False
        if (
            _estimate_latency(topology, library, path_switches, src, dst, centers)
            > flow.latency + 1e-9
        ):
            alt = (
                _naive_dijkstra(
                    topology, library, config, model, src_sw, dst_sw,
                    bandwidth, rate, banned, min_hop=True,
                )
                if src_sw != dst_sw
                else [src_sw]
            )
            if alt is None:
                return False
            if (
                _estimate_latency(topology, library, alt, src, dst, centers)
                > flow.latency + 1e-9
            ):
                return False
            path_switches = alt
        plan = []
        tentative_ids = [inj.id]
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
        real_ids = [inj.id]
        for u, v, link_id in plan:
            if link_id is None:
                real_ids.append(topology.add_switch_link(u, v).id)
            else:
                real_ids.append(link_id)
        real_ids.append(ej.id)
        topology.record_route((src, dst), real_ids, list(path_switches), bandwidth)
        cdg.add_path(real_ids, flow.message_type)
        return True
    return False


def naive_compute_paths(topology, graph, library, config, centers) -> None:
    model = _make_cost_model(topology, graph, library, config)
    cdg = _NaiveCDG()
    if config.flow_order == "bandwidth_desc":
        flows = sorted(graph.edges.items(), key=lambda kv: (-kv[1].bandwidth, kv[0]))
    elif config.flow_order == "bandwidth_asc":
        flows = sorted(graph.edges.items(), key=lambda kv: (kv[1].bandwidth, kv[0]))
    else:
        flows = sorted(graph.edges.items(), key=lambda kv: kv[0])
    indirect_layers: Set[int] = set()
    for (src, dst), flow in flows:
        if flow.bandwidth > model.capacity:
            raise PathComputationError("flow above capacity")
        routed = _naive_route_flow(
            topology, graph, library, config, model, cdg, src, dst, flow, centers
        )
        while not routed:
            if not _try_add_indirect_switch(
                topology, config, library, src, dst, indirect_layers
            ):
                raise PathComputationError("unroutable flow")
            routed = _naive_route_flow(
                topology, graph, library, config, model, cdg,
                src, dst, flow, centers,
            )
    topology.validate_routes()
    over = topology.check_capacity(config.utilisation_cap)
    if over:
        raise PathComputationError(f"links over capacity: {over}")


# --------------------------------------------------------------------------
# the tests
# --------------------------------------------------------------------------

def _route_candidates(bench, config, router):
    """Route switch-count candidates 3..8; returns serialized topologies."""
    from repro.core.phase1 import phase1_candidate

    library = default_library()
    graph = build_comm_graph(bench.core_spec_3d, bench.comm_spec)
    centers = {
        i: core.center for i, core in enumerate(bench.core_spec_3d)
    }
    out = []
    elapsed = 0.0
    for count in range(3, 9):
        assignment = phase1_candidate(graph, config, count)
        try:
            topo = build_topology_skeleton(
                assignment, graph, library, config, centers
            )
            start = time.perf_counter()
            router(topo, graph, library, config, centers)
            elapsed += time.perf_counter() - start
            out.append(topology_to_dict(topo))
        except PathComputationError:
            out.append(None)
    return out, elapsed


@pytest.mark.parametrize("num_cores", (12, 18, 26))
def test_optimized_routes_identical_to_naive(num_cores):
    """Flow-count scaling on the D_26-style synthetic graph: the optimised
    hot path must return byte-identical topologies at every size."""
    bench = synthetic_benchmark(
        num_cores, "distributed", num_layers=3, seed=3, floorplan_moves=200
    )
    config = SynthesisConfig(max_ill=16)
    optimized, t_opt = _route_candidates(bench, config, compute_paths)
    naive, t_naive = _route_candidates(bench, config, naive_compute_paths)
    assert optimized == naive
    assert any(t is not None for t in optimized)
    print(
        f"\n{num_cores} cores: naive {t_naive * 1e3:.1f}ms, "
        f"optimized {t_opt * 1e3:.1f}ms "
        f"({t_naive / t_opt if t_opt else float('inf'):.2f}x)"
    )


def test_frozen_reference_matches_in_test_reference():
    """The benchmark's frozen baseline (repro.engine.reference) must stay in
    lockstep with the reference kept in this test."""
    from repro.engine.reference import naive_compute_paths as frozen

    bench = synthetic_benchmark(
        14, "bottleneck", num_layers=3, seed=9, floorplan_moves=200
    )
    config = SynthesisConfig(max_ill=12)
    ours, _ = _route_candidates(bench, config, naive_compute_paths)
    theirs, _ = _route_candidates(bench, config, frozen)
    assert ours == theirs


def test_optimized_handles_indirect_switch_insertion_identically():
    """A saturating design forces indirect switches: the context cache must
    pick up switches added mid-routing."""
    bench = synthetic_benchmark(
        16, "bottleneck", num_layers=2, seed=2, floorplan_moves=200
    )
    # Tight switch size via high frequency: pushes port saturation.
    config = SynthesisConfig(frequency_mhz=700.0, max_ill=8)
    optimized, _ = _route_candidates(bench, config, compute_paths)
    naive, _ = _route_candidates(bench, config, naive_compute_paths)
    assert optimized == naive
