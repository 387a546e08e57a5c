"""Frozen pre-optimisation engine paths: naive routing, fingerprinting,
partitioning and switch placement.

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

:func:`naive_fingerprint_task` is the store's content addressing as it
existed before :func:`repro.engine.store.fingerprint_task` learned to
encode a payload shared by many tasks once per executor call: every task
re-encodes every field. Tests assert the live addresses are
byte-identical to it (for dicts whose keys sort — this copy keeps the old
insertion-order fallback for unorderable keys), so a store written by
either serves the other. Both encode a ``float`` subclass (``np.float64``)
as the plain float, so addresses do not depend on the numpy version. Salt
resolution and the excluded field names are shared with
:mod:`repro.engine.store`.

The k-way partitioner of :mod:`repro.graphs.partition` is copied whole as
:func:`naive_kway_min_cut`, ``seed`` parameter and all: every block pair is
refined every round, every step re-sorts and re-scans all cells, and greedy
growth re-sums every attraction over every member. Tests assert the live
partitioner returns identical blocks for every graph and every ``seed``.

The switch-placement LP of :mod:`repro.core.placement` is copied whole as
:func:`naive_optimise_switch_positions`: it states Eqs. 2-5 one named
variable and one ``add_constraint`` call at a time. Tests assert the live
function, which builds the same program as arrays, hands ``linprog`` the
same objective, matrix, right-hand sides and bounds, and sets bitwise-equal
switch positions.

Do not "optimise" this module.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import heapq
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.config import SynthesisConfig
from repro.core.paths import (
    DEADLOCK_RETRIES,
    INF,
    _CostModel,
    _edge_cost,
    _estimate_latency,
    _make_cost_model,
    _pick_ban_edge,
    _try_add_indirect_switch,
)
from repro.engine.store import _NON_CONTENT_FIELDS, resolve_salt
from repro.errors import LPError, PathComputationError, StoreError
from repro.graphs.comm_graph import CommGraph
from repro.lp.model import LinearProgram
from repro.models.library import NocLibrary
from repro.rng import make_rng
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
    for _ in range(DEADLOCK_RETRIES):
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
                topology, src, dst, indirect_layers
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
    over = topology.check_capacity()
    if over:
        raise PathComputationError(f"links over capacity after routing: {over}")


# --------------------------------------------------------------------------
# frozen store fingerprinting
# --------------------------------------------------------------------------

def _feed(h, obj: Any) -> None:
    """Fold ``obj`` into digest ``h`` via a canonical type-tagged encoding.

    Every value is emitted as a type tag plus a length-prefixed payload, so
    distinct structures can never collide by concatenation (``("ab", "c")``
    vs ``("a", "bc")``). Dicts and sets are encoded in sorted-key order when
    their keys are orderable (falling back to insertion order), so logically
    equal containers built in different orders still fingerprint equal.
    """
    if obj is None:
        h.update(b"N;")
    elif obj is True:
        h.update(b"T;")
    elif obj is False:
        h.update(b"F;")
    elif isinstance(obj, enum.Enum):
        # Before the int branch: an IntEnum member must not fingerprint
        # as its plain integer value — same digest, different semantics.
        _feed_tagged(h, b"E", _type_tag(obj), obj.name)
    elif isinstance(obj, int):
        data = str(obj).encode()
        h.update(b"i%d:" % len(data) + data)
    elif isinstance(obj, float):
        data = repr(float(obj)).encode()  # plain float: numpy-independent
        h.update(b"f%d:" % len(data) + data)
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        h.update(b"s%d:" % len(data) + data)
    elif isinstance(obj, bytes):
        h.update(b"b%d:" % len(obj) + obj)
    elif isinstance(obj, (tuple, list)):
        h.update(b"(%d:" % len(obj))
        for item in obj:
            _feed(h, item)
        h.update(b")")
    elif isinstance(obj, dict):
        h.update(b"{%d:" % len(obj))
        for key, value in _ordered(obj.items()):
            _feed(h, key)
            _feed(h, value)
        h.update(b"}")
    elif isinstance(obj, (set, frozenset)):
        h.update(b"<%d:" % len(obj))
        for item in _ordered_values(obj):
            _feed(h, item)
        h.update(b">")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"D")
        _feed(h, _type_tag(obj))
        # A dataclass may declare results-invariant fields (parallelism
        # knobs etc.) in ``__fingerprint_exclude__``; they must not split
        # the cache for computations that are bit-identical regardless.
        exclude = getattr(type(obj), "__fingerprint_exclude__", ())
        for f in dataclasses.fields(obj):
            if f.name in exclude:
                continue
            _feed(h, f.name)
            _feed(h, getattr(obj, f.name))
        h.update(b";")
    elif _is_ndarray(obj):
        h.update(b"A")
        _feed(h, str(obj.dtype))
        _feed(h, tuple(obj.shape))
        data = obj.tobytes()
        h.update(b"%d:" % len(data) + data)
    elif hasattr(obj, "__dict__") and not callable(obj):
        # Plain value object (e.g. a stateless Stage instance): class
        # identity plus its instance attributes, sorted by name.
        h.update(b"O")
        _feed(h, _type_tag(obj))
        for name in sorted(vars(obj)):
            _feed(h, name)
            _feed(h, vars(obj)[name])
        h.update(b";")
    else:
        text = repr(obj)
        if " at 0x" in text:
            raise StoreError(
                f"cannot fingerprint {type(obj).__qualname__} instances "
                "(no stable representation)"
            )
        _feed_tagged(h, b"r", _type_tag(obj), text)


def _type_tag(obj: Any) -> str:
    """Module-qualified class identity: same-named value classes from
    different modules must never share a fingerprint."""
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def _feed_tagged(h, tag: bytes, *parts: str) -> None:
    h.update(tag)
    for part in parts:
        data = part.encode("utf-8")
        h.update(b"%d:" % len(data) + data)
    h.update(b";")


def _is_ndarray(obj: Any) -> bool:
    cls = type(obj)
    return cls.__module__ == "numpy" and cls.__name__ == "ndarray"


def _ordered(items):
    try:
        return sorted(items)
    except TypeError:
        return list(items)


def _ordered_values(values):
    try:
        return sorted(values)
    except TypeError:
        # Unorderable set members: order by their own encoding for a
        # construction-order-independent digest.
        def enc(value):
            h = hashlib.sha256()
            _feed(h, value)
            return h.digest()

        return sorted(values, key=enc)


def naive_fingerprint_task(task: Any, *, salt: Optional[str] = None) -> str:
    """The content address of one engine task, every field encoded afresh.

    Folds the task's type name, its value fields (minus caller labels and
    run-local handles) and the code-version ``salt`` into a SHA-256 hex
    digest. Raises :class:`~repro.errors.StoreError` when a field has no
    stable representation.

    A task class may declare ``__fingerprint_delegate__ = "<field>"`` to
    fingerprint as the task held in that field — fault-injection wrappers
    (:class:`~repro.engine.faults.FaultyTask`) use this so a chaos run
    shares content addresses with a clean one.
    """
    delegate = getattr(type(task), "__fingerprint_delegate__", None)
    if delegate is not None:
        return naive_fingerprint_task(getattr(task, delegate), salt=salt)
    if not dataclasses.is_dataclass(task) or isinstance(task, type):
        raise StoreError(
            f"tasks must be dataclass instances, got {type(task).__qualname__}"
        )
    h = hashlib.sha256()
    _feed(h, resolve_salt(salt))
    _feed(h, type(task).__qualname__)
    exclude = _NON_CONTENT_FIELDS.union(
        getattr(type(task), "__fingerprint_exclude__", ())
    )
    for f in dataclasses.fields(task):
        if f.name in exclude:
            continue
        _feed(h, f.name)
        _feed(h, getattr(task, f.name))
    return h.hexdigest()


# --------------------------------------------------------------------------
# frozen k-way partitioner
# --------------------------------------------------------------------------

_Weights = Mapping[Tuple[int, int], float]
_Adjacency = List[Dict[int, float]]


def naive_kway_min_cut(
    n: int,
    weights: _Weights,
    k: int,
    *,
    seed: int = 0,
    refinement_rounds: int = 6,
) -> List[List[int]]:
    """Partition vertices ``0..n-1`` into ``k`` balanced blocks of small cut.

    The frozen :func:`repro.graphs.partition.kway_min_cut`: greedy growth
    that re-sums every attraction at every step, and KL refinement that
    re-runs every block pair each round and re-sorts its work lists every
    step. ``seed`` feeds only a leftovers loop that growth never reaches.

    Args:
        n: Number of vertices.
        weights: Edge weights; keys are vertex pairs (either orientation;
            both orientations are summed), values are non-negative weights.
        k: Number of blocks, ``1 <= k <= n``.
        seed: Determinism seed for tie-breaking.
        refinement_rounds: Maximum KL refinement sweeps over all block pairs.

    Returns:
        List of ``k`` blocks; each block is a sorted list of vertex indices.
        Block sizes are ``n // k`` or ``n // k + 1``. Blocks are ordered by
        their smallest member, so output is deterministic.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")

    adj = _naive_build_adjacency(n, weights)

    if k == 1:
        return [list(range(n))]
    if k == n:
        return [[v] for v in range(n)]

    assignment = _naive_greedy_initial(n, adj, k, seed)
    blocks: List[Set[int]] = [set() for _ in range(k)]
    for v, b in enumerate(assignment):
        blocks[b].add(v)

    _naive_refine(adj, blocks, n, k, refinement_rounds)

    result = [sorted(b) for b in blocks]
    result.sort(key=lambda blk: blk[0] if blk else n)
    return result


def _naive_build_adjacency(n: int, weights: _Weights) -> _Adjacency:
    adj: _Adjacency = [dict() for _ in range(n)]
    for (i, j), w in weights.items():
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        if i == j:
            continue
        w = float(w)
        if w < 0:
            raise ValueError(f"edge ({i}, {j}) has negative weight {w}")
        if w == 0:
            continue
        adj[i][j] = adj[i].get(j, 0.0) + w
        adj[j][i] = adj[j].get(i, 0.0) + w
    return adj


def _naive_block_sizes(n: int, k: int) -> List[int]:
    base, extra = divmod(n, k)
    return [base + 1 if b < extra else base for b in range(k)]


def _naive_greedy_initial(n: int, adj: _Adjacency, k: int, seed: int) -> List[int]:
    """Seeded greedy growth producing a balanced assignment vector."""
    rng = make_rng(seed, "kway-init")
    sizes = _naive_block_sizes(n, k)
    assignment = [-1] * n
    unassigned: Set[int] = set(range(n))

    # Seed selection: first seed is the heaviest vertex; subsequent seeds are
    # the unassigned vertices least attracted to already-chosen seeds (so
    # blocks start far apart in the graph).
    strength = [sum(adj[v].values()) for v in range(n)]
    first = max(range(n), key=lambda v: (strength[v], -v))
    seeds = [first]
    unassigned.discard(first)
    assignment[first] = 0
    for b in range(1, k):
        best_v, best_key = None, None
        for v in sorted(unassigned):
            attraction = sum(adj[v].get(s, 0.0) for s in seeds)
            key = (attraction, -strength[v], v)
            if best_key is None or key < best_key:
                best_key, best_v = key, v
        seeds.append(best_v)
        assignment[best_v] = b
        unassigned.discard(best_v)

    counts = [1] * k
    # Grow: always extend the most under-full block with its most attracted
    # unassigned vertex.
    while unassigned:
        b = min(range(k), key=lambda bb: (counts[bb] / sizes[bb], bb))
        members = [v for v in range(n) if assignment[v] == b]
        best_v, best_key = None, None
        for v in sorted(unassigned):
            attraction = sum(adj[v].get(m, 0.0) for m in members)
            key = (-attraction, -strength[v], v)
            if best_key is None or key < best_key:
                best_key, best_v = key, v
        assignment[best_v] = b
        counts[b] += 1
        unassigned.discard(best_v)
        if counts[b] >= sizes[b] and all(
            counts[bb] >= sizes[bb] for bb in range(k)
        ):
            break

    # Any stragglers (can happen only if sizes were exhausted simultaneously).
    leftovers = [v for v in range(n) if assignment[v] == -1]
    rng.shuffle(leftovers)
    for v in leftovers:
        b = min(range(k), key=lambda bb: (counts[bb] - sizes[bb], bb))
        assignment[v] = b
        counts[b] += 1
    return assignment


def _naive_external_internal(
    adj: _Adjacency, v: int, own: Set[int], other: Set[int]
) -> float:
    """KL D-value of ``v``: external (to ``other``) minus internal weight."""
    ext = 0.0
    intl = 0.0
    for u, w in adj[v].items():
        if u in other:
            ext += w
        elif u in own:
            intl += w
    return ext - intl


def _naive_kl_pass(adj: _Adjacency, a: Set[int], b: Set[int]) -> float:
    """One Kernighan-Lin pass swapping between blocks ``a`` and ``b``.

    Mutates the blocks in place if an improving prefix of swaps exists.
    Returns the achieved gain (0.0 if no improvement).
    """
    if not a or not b:
        return 0.0

    d: Dict[int, float] = {}
    for v in a:
        d[v] = _naive_external_internal(adj, v, a, b)
    for v in b:
        d[v] = _naive_external_internal(adj, v, b, a)

    work_a, work_b = set(a), set(b)
    locked_pairs: List[Tuple[int, int]] = []
    gains: List[float] = []

    steps = min(len(a), len(b))
    for _ in range(steps):
        best = None  # (gain, u, v)
        for u in sorted(work_a):
            adj_u = adj[u]
            du = d[u]
            for v in sorted(work_b):
                gain = du + d[v] - 2.0 * adj_u.get(v, 0.0)
                if best is None or gain > best[0] + 1e-12:
                    best = (gain, u, v)
        if best is None:
            break
        gain, u, v = best
        locked_pairs.append((u, v))
        gains.append(gain)
        work_a.discard(u)
        work_b.discard(v)
        # Update D-values as if u and v were swapped.
        for x in work_a:
            d[x] += 2.0 * adj[x].get(u, 0.0) - 2.0 * adj[x].get(v, 0.0)
        for y in work_b:
            d[y] += 2.0 * adj[y].get(v, 0.0) - 2.0 * adj[y].get(u, 0.0)

    # Best prefix.
    best_total, best_len = 0.0, 0
    total = 0.0
    for idx, g in enumerate(gains, start=1):
        total += g
        if total > best_total + 1e-12:
            best_total, best_len = total, idx

    if best_len == 0:
        return 0.0
    for u, v in locked_pairs[:best_len]:
        a.discard(u)
        b.discard(v)
        a.add(v)
        b.add(u)
    return best_total


def _naive_move_pass(
    adj: _Adjacency, blocks: List[Set[int]], n: int, k: int
) -> float:
    """Single-node moves that keep every block within legal size bounds."""
    lo, hi = n // k, -(-n // k)  # floor and ceil
    total_gain = 0.0
    improved = True
    while improved:
        improved = False
        best = None  # (gain, v, src, dst)
        for src in range(k):
            if len(blocks[src]) <= lo:
                continue
            for v in sorted(blocks[src]):
                conn = [0.0] * k
                for u, w in adj[v].items():
                    for bb in range(k):
                        if u in blocks[bb]:
                            conn[bb] += w
                            break
                for dst in range(k):
                    if dst == src or len(blocks[dst]) >= hi:
                        continue
                    gain = conn[dst] - conn[src]
                    if best is None or gain > best[0] + 1e-12:
                        best = (gain, v, src, dst)
        if best is not None and best[0] > 1e-12:
            gain, v, src, dst = best
            blocks[src].discard(v)
            blocks[dst].add(v)
            total_gain += gain
            improved = True
    return total_gain


def _naive_refine(
    adj: _Adjacency, blocks: List[Set[int]], n: int, k: int, rounds: int
) -> None:
    for _ in range(rounds):
        gain = 0.0
        for i in range(k):
            for j in range(i + 1, k):
                gain += _naive_kl_pass(adj, blocks[i], blocks[j])
        gain += _naive_move_pass(adj, blocks, n, k)
        if gain <= 1e-9:
            break


# --------------------------------------------------------------------------
# switch-placement LP
# --------------------------------------------------------------------------

def naive_optimise_switch_positions(
    topology: Topology,
    core_centers: Mapping[int, Tuple[float, float]],
    die_width_mm: float,
    die_height_mm: float,
) -> float:
    """Set every switch's (x, y) to the LP optimum. Returns the objective.

    The frozen :func:`repro.core.placement.optimise_switch_positions`: one
    :class:`~repro.lp.model.Variable` per variable and one
    :meth:`~repro.lp.model.LinearProgram.add_constraint` call per row.

    Args:
        topology: Routed topology; link loads provide the bandwidth weights.
        core_centers: Fixed (x, y) of every attached core.
        die_width_mm / die_height_mm: Bounds for the switch coordinates
            (the input floorplan's extent).
    """
    nsw = len(topology.switches)
    if nsw == 0:
        return 0.0
    if die_width_mm <= 0 or die_height_mm <= 0:
        raise LPError("die bounds must be positive")

    # Aggregate bandwidth between connected component pairs. Both directions
    # of a pair share the same distance, so their loads are summed.
    sw2core: Dict[Tuple[int, int], float] = {}
    sw2sw: Dict[Tuple[int, int], float] = {}
    for link in topology.links:
        skind, sidx = link.src
        dkind, didx = link.dst
        if skind == "switch" and dkind == "switch":
            key = (min(sidx, didx), max(sidx, didx))
            sw2sw[key] = sw2sw.get(key, 0.0) + link.load_mbps
        elif skind == "switch" and dkind == "core":
            key = (sidx, didx)
            sw2core[key] = sw2core.get(key, 0.0) + link.load_mbps
        elif skind == "core" and dkind == "switch":
            key = (didx, sidx)
            sw2core[key] = sw2core.get(key, 0.0) + link.load_mbps

    lp = LinearProgram()
    xs = [lp.add_variable(f"xs{i}", low=0.0, high=die_width_mm) for i in range(nsw)]
    ys = [lp.add_variable(f"ys{i}", low=0.0, high=die_height_mm) for i in range(nsw)]

    # Zero-bandwidth connections still get a tiny pull so disconnected
    # switches don't wander; weight epsilon keeps the LP bounded and tidy.
    eps = 1e-6

    for (i, k), bw in sorted(sw2core.items()):
        cx, cy = core_centers[k]
        dx = lp.add_variable(f"dxc{i}_{k}")
        dy = lp.add_variable(f"dyc{i}_{k}")
        # dx >= xs_i - cx  and  dx >= cx - xs_i
        lp.add_constraint({dx: 1.0, xs[i]: -1.0}, ">=", -cx)
        lp.add_constraint({dx: 1.0, xs[i]: 1.0}, ">=", cx)
        lp.add_constraint({dy: 1.0, ys[i]: -1.0}, ">=", -cy)
        lp.add_constraint({dy: 1.0, ys[i]: 1.0}, ">=", cy)
        weight = max(bw, eps)
        lp.add_objective_term(dx, weight)
        lp.add_objective_term(dy, weight)

    for (i, j), bw in sorted(sw2sw.items()):
        dx = lp.add_variable(f"dxs{i}_{j}")
        dy = lp.add_variable(f"dys{i}_{j}")
        lp.add_constraint({dx: 1.0, xs[i]: -1.0, xs[j]: 1.0}, ">=", 0.0)
        lp.add_constraint({dx: 1.0, xs[i]: 1.0, xs[j]: -1.0}, ">=", 0.0)
        lp.add_constraint({dy: 1.0, ys[i]: -1.0, ys[j]: 1.0}, ">=", 0.0)
        lp.add_constraint({dy: 1.0, ys[i]: 1.0, ys[j]: -1.0}, ">=", 0.0)
        weight = max(bw, eps)
        lp.add_objective_term(dx, weight)
        lp.add_objective_term(dy, weight)

    solution = lp.solve()

    connected = {i for (i, _k) in sw2core} | {
        i for pair in sw2sw for i in pair
    }
    for i, sw in enumerate(topology.switches):
        if i in connected:
            sw.x = solution.value(xs[i])
            sw.y = solution.value(ys[i])
        else:
            # A switch nothing connects to (can only be an unused indirect
            # switch): centre of the die.
            sw.x = die_width_mm / 2.0
            sw.y = die_height_mm / 2.0
    return solution.objective
