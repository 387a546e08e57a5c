"""Path computation for inter-switch flows (Sec. VI, Algorithm 3).

Given a core-to-switch assignment (an :class:`~repro.core.assignment.Assignment`
already materialised into a :class:`~repro.noc.topology.Topology` skeleton),
this module finds a route for every traffic flow:

* flows are processed in decreasing bandwidth order;
* the route of a flow is a min-cost path over the switch graph, where the
  cost of traversing (u, v) is the marginal power of carrying the flow —
  reusing an existing link with spare capacity is cheap; opening a new link
  pays its static power and port growth, and is subject to the hard (INF)
  and soft (SOFT_INF) thresholds of Algorithm 3 on inter-layer link counts
  and switch sizes;
* latency constraints are enforced on the zero-load estimate; if the
  min-power path violates a flow's constraint the search retries with a
  min-hop objective;
* deadlock freedom is maintained with a channel-dependency graph per
  message class; a route that would close a cycle is re-searched with the
  offending switch-graph edges banned;
* when port saturation makes a flow unroutable, core-less *indirect
  switches* are inserted (Sec. VI: "these indirect switches help in reducing
  the number of ports needed in the direct switches").

This is the hottest loop of the whole flow (one Dijkstra per flow per
candidate switch count per architectural point), so the search prices
edges by rows, not by calls. A :class:`_RoutingContext` keeps the inputs
of Algorithm 3's edge cost split by how often they change: per switch
pair (geometry, wire/TSV energy, static power; fixed), per switch (size
energy, port growth, size thresholds; refreshed for the switches of each
committed path), per layer pair (inter-layer link thresholds) and per
directed pair (the lowest existing link load). :func:`_dijkstra` relaxes
each popped switch's whole row in one loop over that state, using the
float operations of the plain :func:`_edge_cost` evaluator in the same
order, so costs and paths are bit-identical to it. The frozen router in
:mod:`repro.engine.reference` calls :func:`_edge_cost` on every
relaxation and is the regression oracle.

Raises :class:`~repro.errors.PathComputationError` when any flow cannot be
routed — the caller (Algorithm 1 / 2 driver) treats the design point as
unmet.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.assignment import Assignment
from repro.core.config import SynthesisConfig
from repro.errors import PathComputationError
from repro.graphs.comm_graph import CommGraph
from repro.models.library import NocLibrary
from repro.noc.deadlock import ChannelDependencyGraph
from repro.noc.topology import Topology, core_ep, switch_ep
from repro.units import flits_per_second

INF = float("inf")

#: Algorithm 3's soft thresholds (Sec. VI): ``soft_max_ill`` and
#: ``soft_max_switch_size`` sit this many links / ports under their hard
#: limits, and a new link past either pays SOFT_INF, this factor times the
#: maximum cost of any flow.
SOFT_ILL_MARGIN = 2
SOFT_SWITCH_MARGIN = 2
SOFT_INF_FACTOR = 10.0
#: Re-searches of one flow, each banning one more switch-graph edge, when
#: its path would close a channel-dependency cycle.
DEADLOCK_RETRIES = 8


def build_topology_skeleton(
    assignment: Assignment,
    graph: CommGraph,
    library: NocLibrary,
    config: SynthesisConfig,
    core_centers: Mapping[int, Tuple[float, float]],
) -> Topology:
    """Materialise an assignment: switches, core attachments, no routes yet.

    Raises PathComputationError if a switch's core attachments already exceed
    the maximum switch size for the target frequency (pruning rule 1) or if
    the core links alone violate the max_ill constraint (pruning rule 3).
    """
    topo = Topology(
        frequency_mhz=config.frequency_mhz, width_bits=config.link_width_bits
    )
    for layer in assignment.switch_layers:
        topo.add_switch(layer)
    for s, block in enumerate(assignment.blocks):
        for core in block:
            topo.attach_core(core, s, graph.layers[core])

    # Estimated switch positions: centroid of the attached cores (used by
    # the path cost model; refined later by the placement LP).
    for s, block in enumerate(assignment.blocks):
        if block:
            xs = [core_centers[c][0] for c in block]
            ys = [core_centers[c][1] for c in block]
            topo.switches[s].x = sum(xs) / len(xs)
            topo.switches[s].y = sum(ys) / len(ys)

    max_size = library.switch.max_switch_size(config.frequency_mhz)
    for sw in topo.switches:
        if sw.size > max_size:
            raise PathComputationError(
                f"switch {sw.id} needs {sw.size} ports for its cores alone, "
                f"above the size limit {max_size} at {config.frequency_mhz} MHz"
            )
    for boundary, count in topo.ill.items():
        if count > config.max_ill:
            raise PathComputationError(
                f"core links alone use {count} inter-layer links across "
                f"boundary {boundary}, above max_ill={config.max_ill}"
            )
    return topo


@dataclass
class _CostModel:
    """Precomputed constants for Algorithm 3 cost evaluation."""

    max_switch_size: int
    soft_switch_size: int
    soft_max_ill: int
    soft_inf: float
    capacity: float


class _RoutingContext:
    """Algorithm 3 pricing state of one design point, kept current per commit.

    The cost of a hop (u, v) splits by how often its inputs change:

    * **per ordered pair, fixed:** the wire + TSV energy of a flit crossing
      (u, v) and the static power of a new link there. Switch positions are
      only refined by the placement LP *after* routing, so :meth:`row` builds
      these once per switch ``u`` (and extends the row when an indirect
      switch joins).
    * **per switch, changed only by a commit:** the traversal energy at the
      switch's size, the clock power of one more port, and whether one more
      input or output port breaks the hard or soft size limit.
    * **per layer pair:** whether a new link between the two layers is
      forbidden (the adjacent-layer rule, or a crossed boundary at
      ``max_ill``) or soft (a crossed boundary at ``soft_max_ill``).
    * **per directed switch pair:** the lowest load of any existing link.
      Some link has room exactly when ``min_load + bw <= cap``, because IEEE
      addition is monotone.

    :meth:`commit` refreshes the last three for the switches and hops of a
    routed path, and :func:`_dijkstra` prices a whole row per pop from them.
    Only the flow's bandwidth and flit rate vary between searches. The float
    operations are :func:`_edge_cost`'s, in the same order, so costs are
    bit-identical to it.
    """

    __slots__ = (
        "topology", "library", "config", "rows", "layer", "energy", "growth",
        "in_hard", "in_soft", "out_hard", "out_soft", "min_load", "layer_state",
        "reuse_cap", "soft_on", "soft_inf", "_max_size", "_soft_size",
        "_max_ill", "_soft_max_ill", "_ill_counts", "_tsv_energy",
    )

    def __init__(
        self,
        topology: Topology,
        library: NocLibrary,
        config: SynthesisConfig,
        model: _CostModel,
    ) -> None:
        self.topology = topology
        self.library = library
        self.config = config
        self.reuse_cap = model.capacity + 1e-9
        self.soft_on = config.use_soft_thresholds
        self.soft_inf = model.soft_inf
        self._max_size = model.max_switch_size
        self._soft_size = model.soft_switch_size
        self._max_ill = config.max_ill
        self._soft_max_ill = model.soft_max_ill
        #: u -> (move_energy_pj, open_static_mw) per v, built on first pop.
        self.rows: List[Optional[Tuple[List[float], List[float]]]] = []
        self.layer: List[int] = []
        self.energy: List[float] = []
        self.growth: List[float] = []
        self.in_hard: List[bool] = []
        self.in_soft: List[bool] = []
        self.out_hard: List[bool] = []
        self.out_soft: List[bool] = []
        #: u -> v -> lowest load of a u->v link (INF when there is none).
        self.min_load: List[List[float]] = []
        #: layer -> layer -> 0 (free), 1 (soft) or 2 (no new link).
        self.layer_state: List[List[int]] = []
        self._ill_counts: List[int] = []
        #: layers crossed -> TSV energy per flit.
        self._tsv_energy: List[float] = []
        self.switch_added()
        for link in topology.links:
            if link.src[0] == "switch" and link.dst[0] == "switch":
                row = self.min_load[link.src[1]]
                v = link.dst[1]
                if link.load_mbps < row[v]:
                    row[v] = link.load_mbps

    def switch_added(self) -> None:
        """Register switches appended to the topology (indirect insertion)."""
        switches = self.topology.switches
        old, n = len(self.layer), len(switches)
        for loads in self.min_load:
            loads.extend([INF] * (n - old))
        for s in range(old, n):
            self.layer.append(switches[s].layer)
            self.min_load.append([INF] * n)
            for column in (
                self.rows, self.energy, self.growth, self.in_hard,
                self.in_soft, self.out_hard, self.out_soft,
            ):
                column.append(None)
            self._refresh_switch(s)
        layers = range(max(self.layer, default=0) + 1)
        self._tsv_energy = [self.library.tsv.energy_per_flit_pj(k) for k in layers]
        self._ill_counts = []
        self._refresh_layers()

    def commit(self, path_switches: Sequence[int]) -> None:
        """Refresh the state a routed path changed: its switches and hops."""
        topo = self.topology
        for s in path_switches:
            self._refresh_switch(s)
        for u, v in zip(path_switches, path_switches[1:]):
            self.min_load[u][v] = min(
                link.load_mbps
                for link in topo.links_between(switch_ep(u), switch_ep(v))
            )
        self._refresh_layers()

    def row(self, u: int) -> Tuple[List[float], List[float]]:
        """The fixed (move energy, open static power) of every hop from u."""
        row = self.rows[u]
        n = len(self.layer)
        if row is None or len(row[0]) < n:
            move, static = row if row is not None else ([], [])
            switches = self.topology.switches
            link = self.library.link
            tsv_energy = self._tsv_energy
            tsv_static = self.library.tsv.static_mw_per_link
            su = switches[u]
            for v in range(len(move), n):
                sv = switches[v]
                planar = abs(su.x - sv.x) + abs(su.y - sv.y)
                vlayers = abs(su.layer - sv.layer)
                move.append(link.energy_per_flit_pj(planar) + tsv_energy[vlayers])
                static.append(
                    link.static_power_mw(planar) + vlayers * tsv_static
                )
            row = self.rows[u] = (move, static)
        return row

    def _refresh_switch(self, s: int) -> None:
        """Size-dependent terms of switch ``s`` at its current port counts."""
        sw = self.topology.switches[s]
        model = self.library.switch
        freq = self.config.frequency_mhz
        ports = max(sw.in_ports, sw.out_ports, model.min_ports)
        self.energy[s] = model.energy_per_flit_pj(ports)
        self.growth[s] = (
            model.clock_power_mw(ports + 1, freq) - model.clock_power_mw(ports, freq)
        )
        self.in_hard[s] = sw.in_ports + 1 > self._max_size
        self.in_soft[s] = sw.in_ports + 1 > self._soft_size
        self.out_hard[s] = sw.out_ports + 1 > self._max_size
        self.out_soft[s] = sw.out_ports + 1 > self._soft_size

    def _refresh_layers(self) -> None:
        """Rebuild the layer-pair table if an ``ill`` count moved."""
        ill = self.topology.ill
        layers = range(max(self.layer, default=0) + 1)
        counts = [ill.get((b, b + 1), 0) for b in layers]
        if counts == self._ill_counts:
            return
        self._ill_counts = counts
        table = []
        for a in layers:
            row = []
            for b in layers:
                lo, hi = (a, b) if a <= b else (b, a)
                if lo == hi:
                    row.append(0)
                elif hi - lo >= 2:
                    row.append(2)
                else:
                    worst = max(counts[lo:hi])
                    row.append(
                        2 if worst >= self._max_ill
                        else 1 if worst >= self._soft_max_ill else 0
                    )
            table.append(row)
        self.layer_state = table


def compute_paths(
    topology: Topology,
    graph: CommGraph,
    library: NocLibrary,
    config: SynthesisConfig,
    core_centers: Mapping[int, Tuple[float, float]],
) -> None:
    """Route every flow of ``graph`` on ``topology`` (mutates the topology)."""
    model = _make_cost_model(topology, graph, library, config)
    ctx = _RoutingContext(topology, library, config, model)
    cdg = ChannelDependencyGraph()

    if config.flow_order == "bandwidth_desc":
        flows = sorted(
            graph.edges.items(), key=lambda kv: (-kv[1].bandwidth, kv[0])
        )
    elif config.flow_order == "bandwidth_asc":
        flows = sorted(
            graph.edges.items(), key=lambda kv: (kv[1].bandwidth, kv[0])
        )
    else:  # "spec": deterministic spec order (sorted index pairs)
        flows = sorted(graph.edges.items(), key=lambda kv: kv[0])
    indirect_layers: Set[int] = set()

    for (src, dst), flow in flows:
        if flow.bandwidth > model.capacity:
            raise PathComputationError(
                f"flow {src}->{dst} demands {flow.bandwidth} MB/s, above link "
                f"capacity {model.capacity:.1f} MB/s"
            )
        routed = _route_flow(
            topology, graph, library, config, model, ctx, cdg,
            src, dst, flow, core_centers,
        )
        while not routed:
            added = _try_add_indirect_switch(
                topology, src, dst, indirect_layers
            )
            if not added:
                raise PathComputationError(
                    f"no valid path for flow {src}->{dst} "
                    f"(bw {flow.bandwidth} MB/s, lat <= {flow.latency} cycles)"
                )
            ctx.switch_added()
            routed = _route_flow(
                topology, graph, library, config, model, ctx, cdg,
                src, dst, flow, core_centers,
            )

    topology.validate_routes()
    over = topology.check_capacity()
    if over:
        raise PathComputationError(f"links over capacity after routing: {over}")


# --------------------------------------------------------------------------
# internals
# --------------------------------------------------------------------------

def _make_cost_model(
    topology: Topology,
    graph: CommGraph,
    library: NocLibrary,
    config: SynthesisConfig,
) -> _CostModel:
    max_size = library.switch.max_switch_size(config.frequency_mhz)
    soft_size = max(library.switch.min_ports, max_size - SOFT_SWITCH_MARGIN)
    soft_ill = max(0, config.max_ill - SOFT_ILL_MARGIN)

    # SOFT_INF: "ten times the maximum cost of any flow" (Sec. VI). The cost
    # of a flow is bounded by its flit rate times the worst per-hop energy
    # over the die diagonal.
    diag = 40.0  # generous upper bound on die extent in mm
    worst_energy = (
        library.link.energy_per_flit_pj(diag)
        + library.switch.energy_per_flit_pj(max_size)
        + library.tsv.energy_per_flit_pj(max(1, graph.num_layers - 1))
    )
    max_rate = flits_per_second(graph.max_bandwidth, config.link_width_bits)
    soft_inf = SOFT_INF_FACTOR * max_rate * worst_energy * 1e-3

    return _CostModel(
        max_switch_size=max_size,
        soft_switch_size=soft_size,
        soft_max_ill=soft_ill,
        soft_inf=soft_inf,
        capacity=topology.capacity_mbps,
    )


def _edge_cost(
    topology: Topology,
    library: NocLibrary,
    config: SynthesisConfig,
    model: _CostModel,
    u: int,
    v: int,
    bandwidth: float,
    rate_mflits: float,
) -> Tuple[float, bool]:
    """Cost of routing the flow across switches (u -> v).

    Returns (cost in mW-equivalents, needs_new_link). INF cost means the
    edge is unusable (hard constraint of Algorithm 3). This is the plain
    single-shot evaluator; :func:`_dijkstra` computes the same values
    from the per-commit state of :class:`_RoutingContext`.
    """
    su = topology.switches[u]
    sv = topology.switches[v]
    planar = abs(su.x - sv.x) + abs(su.y - sv.y)
    vlayers = abs(su.layer - sv.layer)

    traffic = rate_mflits * (
        library.link.energy_per_flit_pj(planar)
        + library.tsv.energy_per_flit_pj(vlayers)
        + library.switch.energy_per_flit_pj(max(sv.size, library.switch.min_ports))
    ) * 1e-3

    # Reuse an existing link when capacity allows: no new resources needed.
    for link in topology.links_between(switch_ep(u), switch_ep(v)):
        if link.load_mbps + bandwidth <= model.capacity + 1e-9:
            return traffic, False

    # A new physical link is needed: Algorithm 3 constraint checks, the
    # first being the adjacent-layer rule (step 3).
    if vlayers >= 2:
        return INF, True

    soft = False
    for boundary in range(min(su.layer, sv.layer), max(su.layer, sv.layer)):
        count = topology.ill.get((boundary, boundary + 1), 0)
        if count >= config.max_ill:
            return INF, True
        if count >= model.soft_max_ill:
            soft = True

    if su.out_ports + 1 > model.max_switch_size:
        return INF, True
    if sv.in_ports + 1 > model.max_switch_size:
        return INF, True
    if (
        su.out_ports + 1 > model.soft_switch_size
        or sv.in_ports + 1 > model.soft_switch_size
    ):
        soft = True

    freq = config.frequency_mhz
    min_p = library.switch.min_ports
    size_u = max(su.size, min_p)
    size_v = max(sv.size, min_p)
    open_penalty = (
        library.link.static_power_mw(planar)
        + vlayers * library.tsv.static_mw_per_link
        + (
            library.switch.clock_power_mw(size_u + 1, freq)
            - library.switch.clock_power_mw(size_u, freq)
        )
        + (
            library.switch.clock_power_mw(size_v + 1, freq)
            - library.switch.clock_power_mw(size_v, freq)
        )
    )
    cost = traffic + open_penalty
    if soft and config.use_soft_thresholds:
        cost += model.soft_inf
    return cost, True


def _dijkstra(
    ctx: _RoutingContext,
    src_sw: int,
    dst_sw: int,
    bandwidth: float,
    rate: float,
    banned: Set[Tuple[int, int]],
    min_hop: bool = False,
) -> Optional[List[int]]:
    """Min-cost (or min-hop) path over the switch graph. None if none.

    Each pop prices the whole row of ``u`` in one loop over the context's
    state, with :func:`_edge_cost`'s arithmetic: reuse a link with room,
    else open one unless a hard threshold forbids it.
    """
    n = len(ctx.layer)
    dist = [INF] * n
    dist[src_sw] = 0.0
    prev = [-1] * n
    done = [False] * n
    reached = False
    heap: List[Tuple[float, int]] = [(0.0, src_sw)]
    cap = ctx.reuse_cap
    layer = ctx.layer
    energy = ctx.energy
    growth = ctx.growth
    in_hard = ctx.in_hard
    in_soft = ctx.in_soft
    soft_on = ctx.soft_on
    soft_inf = ctx.soft_inf

    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        if u == dst_sw:
            reached = True
            break
        done[u] = True
        skip = done
        if banned:
            cut = [v for a, v in banned if a == u]
            if cut:
                skip = done[:]
                for v in cut:
                    skip[v] = True
        move, static = ctx.row(u)
        loads = ctx.min_load[u]
        states = ctx.layer_state[layer[u]]
        can_open = not ctx.out_hard[u]
        soft_u = ctx.out_soft[u]
        growth_u = growth[u]
        for v in range(n):
            if skip[v]:
                continue
            if loads[v] + bandwidth <= cap:
                cost = rate * (move[v] + energy[v]) * 1e-3
            elif can_open:
                state = states[layer[v]]
                if state == 2 or in_hard[v]:
                    continue
                cost = rate * (move[v] + energy[v]) * 1e-3 + (
                    (static[v] + growth_u) + growth[v]
                )
                if soft_on and (state or soft_u or in_soft[v]):
                    cost += soft_inf
            else:
                continue
            nd = d + ((1.0 + cost * 1e-9) if min_hop else cost)
            if nd < dist[v]:
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))

    if not reached and dist[dst_sw] == INF:
        return None
    path = [dst_sw]
    while path[-1] != src_sw:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def _estimate_latency(
    topology: Topology,
    library: NocLibrary,
    path_switches: Sequence[int],
    src: int,
    dst: int,
    core_centers: Mapping[int, Tuple[float, float]],
) -> float:
    """Zero-load latency estimate using current (pre-placement) positions."""
    freq = topology.frequency_mhz
    latency = float(len(path_switches)) * library.switch.delay_cycles()

    def extra(length: float) -> int:
        return max(0, library.link.pipeline_stages(length, freq) - 1)

    sw0 = topology.switches[path_switches[0]]
    swn = topology.switches[path_switches[-1]]
    cs, cd = core_centers[src], core_centers[dst]
    latency += extra(abs(cs[0] - sw0.x) + abs(cs[1] - sw0.y))
    latency += extra(abs(cd[0] - swn.x) + abs(cd[1] - swn.y))
    for a, b in zip(path_switches, path_switches[1:]):
        sa, sb = topology.switches[a], topology.switches[b]
        latency += extra(abs(sa.x - sb.x) + abs(sa.y - sb.y))
        latency += library.tsv.delay_cycles(abs(sa.layer - sb.layer), freq)
    return latency


def _route_flow(
    topology: Topology,
    graph: CommGraph,
    library: NocLibrary,
    config: SynthesisConfig,
    model: _CostModel,
    ctx: _RoutingContext,
    cdg: ChannelDependencyGraph,
    src: int,
    dst: int,
    flow,
    core_centers: Mapping[int, Tuple[float, float]],
) -> bool:
    """Try to route one flow. Returns False if no valid path exists."""
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
    for _ in range(DEADLOCK_RETRIES):
        if src_sw == dst_sw:
            path_switches: Optional[List[int]] = [src_sw]
        else:
            path_switches = _dijkstra(
                ctx, src_sw, dst_sw, bandwidth, rate, banned,
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
                _dijkstra(
                    ctx, src_sw, dst_sw, bandwidth, rate, banned, min_hop=True,
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

        # Plan link usage with tentative ids for new links.
        plan: List[Tuple[int, int, Optional[int]]] = []  # (u, v, link_id|None)
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

        # Commit: materialise new links, record route and dependencies.
        real_ids: List[int] = [inj.id]
        for u, v, link_id in plan:
            if link_id is None:
                link = topology.add_switch_link(u, v)
                real_ids.append(link.id)
            else:
                real_ids.append(link_id)
        real_ids.append(ej.id)
        topology.record_route((src, dst), real_ids, list(path_switches), bandwidth)
        ctx.commit(path_switches)
        cdg.add_path(real_ids, flow.message_type)
        return True

    return False


def _pick_ban_edge(
    path_switches: Sequence[int], banned: Set[Tuple[int, int]]
) -> Optional[Tuple[int, int]]:
    """Choose a switch-graph edge of the failed path to forbid on retry.

    The final turns of a path most often close the dependency cycle, so edges
    are banned from the destination side backwards.
    """
    edges = list(zip(path_switches, path_switches[1:]))
    for edge in reversed(edges):
        if edge not in banned:
            return edge
    return None


def _try_add_indirect_switch(
    topology: Topology,
    src: int,
    dst: int,
    indirect_layers: Set[int],
) -> bool:
    """Insert one core-less indirect switch near the failing flow (Sec. VI).

    At most one indirect switch is added per layer per design point. Returns
    True if a switch was added.
    """
    for sw_id in (topology.core_to_switch[src], topology.core_to_switch[dst]):
        layer = topology.switches[sw_id].layer
        if layer in indirect_layers:
            continue
        peers = [s for s in topology.switches if s.layer == layer]
        sw = topology.add_switch(layer, is_indirect=True)
        if peers:
            sw.x = sum(p.x for p in peers) / len(peers)
            sw.y = sum(p.y for p in peers) / len(peers)
        indirect_layers.add(layer)
        return True
    return False
