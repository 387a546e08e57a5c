"""Balanced k-way min-cut graph partitioning.

Algorithms 1 and 2 of the paper repeatedly ask for "i min-cut partitions of
PG ... such that each block has about equal number of cores". This module
implements that primitive from scratch:

1. **Greedy growth** builds an initial balanced partition: block seeds
   are chosen to be mutually weakly connected, then blocks absorb the
   unassigned vertex with the strongest attraction, always growing the
   currently smallest block.
2. **Pairwise Kernighan-Lin refinement** improves the cut: for every pair of
   blocks a KL pass finds the best prefix of tentative swaps (edges to
   vertices outside the pair are unaffected by a swap, so pairwise passes are
   exact for the pair).
3. **Balance-preserving single moves** handle the ``n % k != 0`` case where
   block sizes may legally differ by one.

The partition depends only on ``(n, weights, k)``. It is pinned bit for bit
to the frozen :func:`repro.engine.reference.naive_kway_min_cut`, so each
shortcut below either performs the float operations of the plain algorithm
in the same order or skips work whose outcome is fixed:

* **Incremental attractions.** Growth keeps one attraction per (block,
  unassigned vertex) and re-sums it, over the vertex's neighbours in the
  block in ascending index order, only for the neighbours of the vertex
  just placed. The plain sum over every member differs only by ``+ 0.0``
  terms, which are exact no-ops. Seed attractions sum their nonzero terms
  in seed order, as ``sum(... for s in seeds)`` did. A heap of the
  under-full blocks yields the block the ``min`` over all blocks yielded:
  a full block's fill ratio is 1, above every under-full one.
* **Pair-stability memo.** A KL pass is a pure function of its two
  blocks, so :func:`_refine` skips a pair whose blocks are unchanged since
  its pass returned 0 (that 0 would add nothing to the round's gain).
* **KL pass shortcuts.** :func:`_kl_pass` returns 0 at once for a pair
  with no edge between its blocks when the smaller block has at most two
  vertices (the proof is in its docstring), sorts its work lists once per
  pass rather than once per step, and skips a row of the swap scan when
  ``d[u] + max(d over b)`` cannot clear the bar. Float addition is
  monotone and ``2 * w >= 0``, so no cell of that row could win under the
  sequential ``> best + 1e-12`` rule.
* **Single moves** read each neighbour's block from an owner array rather
  than testing every block in turn, and try only blocks with room: the
  same sums in the same order.

Weights must be finite and non-negative, and doubling a pair's summed
weight must not overflow; anything else raises :class:`ValueError`.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from typing import Dict, List, Mapping, Sequence, Set, Tuple

Weights = Mapping[Tuple[int, int], float]
Adjacency = List[Dict[int, float]]

#: Maximum KL refinement sweeps over all block pairs.
REFINEMENT_ROUNDS = 6


def kway_min_cut(n: int, weights: Weights, k: int) -> List[List[int]]:
    """Partition vertices ``0..n-1`` into ``k`` balanced blocks of small cut.

    Args:
        n: Number of vertices.
        weights: Edge weights; keys are vertex pairs (either orientation;
            both orientations are summed), values are finite non-negative
            weights.
        k: Number of blocks, ``1 <= k <= n``.

    Returns:
        List of ``k`` blocks; each block is a sorted list of vertex indices.
        Block sizes are ``n // k`` or ``n // k + 1``. Blocks are ordered by
        their smallest member, so output is deterministic.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")

    adj = _build_adjacency(n, weights)

    if k == 1:
        return [list(range(n))]
    if k == n:
        return [[v] for v in range(n)]

    assignment = _greedy_initial(n, adj, k)
    blocks: List[Set[int]] = [set() for _ in range(k)]
    for v, b in enumerate(assignment):
        blocks[b].add(v)

    _refine(adj, blocks, n, k)

    result = [sorted(b) for b in blocks]
    result.sort(key=lambda blk: blk[0] if blk else n)
    return result


def cut_value(n: int, weights: Weights, blocks: Sequence[Sequence[int]]) -> float:
    """Total weight of edges crossing between different blocks.

    Each undirected pair is counted once (both orientations of a directed
    pair are summed into the pair weight first).
    """
    owner = {}
    for b, block in enumerate(blocks):
        for v in block:
            if v in owner:
                raise ValueError(f"vertex {v} appears in multiple blocks")
            owner[v] = b
    if len(owner) != n:
        raise ValueError(f"blocks cover {len(owner)} of {n} vertices")

    pair_weights: Dict[Tuple[int, int], float] = {}
    for (i, j), w in weights.items():
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        pair_weights[key] = pair_weights.get(key, 0.0) + float(w)

    return sum(
        w for (i, j), w in pair_weights.items() if owner[i] != owner[j]
    )


# --------------------------------------------------------------------------
# internals
# --------------------------------------------------------------------------

def _build_adjacency(n: int, weights: Weights) -> Adjacency:
    adj: Adjacency = [dict() for _ in range(n)]
    for (i, j), w in weights.items():
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        if i == j:
            continue
        w = float(w)
        if not math.isfinite(w):
            raise ValueError(f"edge ({i}, {j}) has non-finite weight {w}")
        if w < 0:
            raise ValueError(f"edge ({i}, {j}) has negative weight {w}")
        if w == 0:
            continue
        pair = adj[i].get(j, 0.0) + w
        if not math.isfinite(2.0 * pair):
            raise ValueError(f"edge ({i}, {j}) has weight {pair}, too large "
                             f"to double")
        adj[i][j] = adj[j][i] = pair
    return adj


def _block_sizes(n: int, k: int) -> List[int]:
    base, extra = divmod(n, k)
    return [base + 1 if b < extra else base for b in range(k)]


def _greedy_initial(n: int, adj: Adjacency, k: int) -> List[int]:
    """Greedy growth producing a balanced assignment vector, with the
    incremental attractions of the module docstring."""
    sizes = _block_sizes(n, k)
    assignment = [-1] * n
    unassigned: Set[int] = set(range(n))
    # attraction[b][v] sums adj[v][m] over ``linked[b][v]``, the members of
    # block b adjacent to v, ascending.
    attraction: List[Dict[int, float]] = [dict() for _ in range(k)]
    linked: List[Dict[int, List[int]]] = [dict() for _ in range(k)]

    def place(v: int, b: int) -> None:
        assignment[v] = b
        unassigned.discard(v)
        for att in attraction:
            att.pop(v, None)
        att, lnk = attraction[b], linked[b]
        for u in adj[v]:
            if assignment[u] < 0:
                members = lnk.setdefault(u, [])
                insort(members, v)
                adj_u = adj[u]
                att[u] = sum(adj_u[m] for m in members)

    # Seed selection: first seed is the heaviest vertex; subsequent seeds are
    # the unassigned vertices least attracted to already-chosen seeds (so
    # blocks start far apart in the graph). Each vertex's seed attraction
    # sums its nonzero terms in seed order.
    strength = [sum(adj[v].values()) for v in range(n)]
    seed = max(range(n), key=lambda v: (strength[v], -v))
    place(seed, 0)
    seed_terms: Dict[int, List[float]] = {}
    seed_attraction: Dict[int, float] = {}
    for b in range(1, k):
        for v, w in adj[seed].items():
            if assignment[v] < 0:
                terms = seed_terms.setdefault(v, [])
                terms.append(w)
                seed_attraction[v] = sum(terms)
        seed = min(unassigned, key=lambda v: (
            seed_attraction.get(v, 0.0), -strength[v], v))
        place(seed, b)

    # Grow: always extend the most under-full block with its most attracted
    # unassigned vertex. Some block stays under-full while any vertex is
    # unassigned, because the sizes sum to n; the heap holds exactly the
    # under-full blocks keyed (fill ratio, index). Every attraction kept is
    # positive, so a block with any beats every unattracted vertex.
    counts = [1] * k
    heap = [(1 / sizes[b], b) for b in range(k) if sizes[b] > 1]
    heapq.heapify(heap)
    while unassigned:
        _, b = heapq.heappop(heap)
        att = attraction[b]
        if att:
            v = min(att, key=lambda u: (-att[u], -strength[u], u))
        else:
            v = min(unassigned, key=lambda u: (-strength[u], u))
        place(v, b)
        counts[b] += 1
        if counts[b] < sizes[b]:
            heapq.heappush(heap, (counts[b] / sizes[b], b))
    return assignment


def _kl_pass(adj: Adjacency, a: Set[int], b: Set[int]) -> float:
    """One Kernighan-Lin pass swapping between blocks ``a`` and ``b``.

    Mutates the blocks in place if an improving prefix of swaps exists.
    Returns the achieved gain (0.0 if no improvement).

    A pair with no edge between its blocks returns 0 without a pass when
    the smaller block has at most two vertices. For a single vertex the pass
    has one step: its D-value is 0, every other one is ``0 - internal <=
    0``, and no cell has a shared edge, so the one prefix gain is <= 0.
    For two vertices joined by weight ``w`` (0 if not joined), both start
    at ``-w``. The first step pairs one of them with some ``y`` of D-value
    ``-I_y`` and gains ``-fl(w + I_y)``. The update then gives the other
    one exactly ``-w + 2w = w``, and each remaining ``y'`` gets at most
    ``-I_y' + 2 w(y, y') <= w(y, y') <= I_y``, because each float internal
    sum includes that edge. So the second gain ``fl(w + D(y'))`` is at most
    ``fl(w + I_y)``, and both prefix totals are <= 0, since rounding is
    monotone. The doubling is exact, as :func:`_build_adjacency` refuses
    weights that would overflow. With larger blocks, rounding over longer
    prefixes can accept a swap, so those pairs get the full pass.
    """
    if not a or not b:
        return 0.0
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    if len(small) <= 2 and not any(u in large for v in small for u in adj[v]):
        return 0.0

    d: Dict[int, float] = {}
    for own, other in ((a, b), (b, a)):
        for v in own:
            ext = intl = 0.0
            for u, w in adj[v].items():
                if u in other:
                    ext += w
                elif u in own:
                    intl += w
            d[v] = ext - intl

    work_a, work_b = sorted(a), sorted(b)
    locked_pairs: List[Tuple[int, int]] = []
    gains: List[float] = []

    for _ in range(min(len(a), len(b))):
        # Cells are scanned in ascending (u, v) order, and one replaces the
        # best only if it beats it by more than 1e-12. Every gain of row u
        # is <= d[u] + max(d over b), so a row whose bound cannot do that
        # holds no winner (a NaN bound never skips).
        d_top = max(d[v] for v in work_b)
        best = None  # (gain, u, v)
        for u in work_a:
            du = d[u]
            if best is not None and du + d_top <= best[0] + 1e-12:
                continue
            adj_u = adj[u]
            for v in work_b:
                gain = du + d[v] - 2.0 * adj_u.get(v, 0.0)
                if best is None or gain > best[0] + 1e-12:
                    best = (gain, u, v)
        gain, u, v = best
        locked_pairs.append((u, v))
        gains.append(gain)
        work_a.remove(u)
        work_b.remove(v)
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


def _move_pass(
    adj: Adjacency, blocks: List[Set[int]], n: int, k: int
) -> float:
    """Single-node moves that keep every block within legal size bounds."""
    lo, hi = n // k, -(-n // k)  # floor and ceil
    total_gain = 0.0
    improved = True
    while improved:
        improved = False
        best = None  # (gain, v, src, dst)
        owner = [0] * n
        for b, block in enumerate(blocks):
            for v in block:
                owner[v] = b
        targets = [dst for dst in range(k) if len(blocks[dst]) < hi]
        for src in range(k):
            if len(blocks[src]) <= lo:
                continue
            for v in sorted(blocks[src]):
                conn = [0.0] * k
                for u, w in adj[v].items():
                    conn[owner[u]] += w
                for dst in targets:
                    if dst == src:
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


def _refine(adj: Adjacency, blocks: List[Set[int]], n: int, k: int) -> None:
    # A block's version moves whenever it changes; ``stable`` holds, per
    # pair, the versions at which its KL pass last returned 0.
    version = [0] * k
    stable: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for _ in range(REFINEMENT_ROUNDS):
        gain = 0.0
        for i in range(k):
            for j in range(i + 1, k):
                seen = (version[i], version[j])
                if stable.get((i, j)) == seen:
                    continue
                pair_gain = _kl_pass(adj, blocks[i], blocks[j])
                if pair_gain:
                    version[i] += 1
                    version[j] += 1
                else:
                    stable[(i, j)] = seen
                gain += pair_gain
        moved = _move_pass(adj, blocks, n, k)
        if moved:
            version = [v + 1 for v in version]
        gain += moved
        if gain <= 1e-9:
            break
