"""Array-based, occupancy-driven wormhole simulation engine.

The naive simulator (frozen in :mod:`repro.noc.reference`) pays for every
entity on every cycle: it allocates a ``_Flit`` dataclass per flit, scans
every link's pipeline deque, rebuilds a rotated flow list and walks every
switch output's full input list even when the network is idle. This engine
replaces all of that with flat state keyed by small integers:

* **integer flits** — flit ``pid * L + k`` of packet ``pid`` carries its
  packet id, head/tail role and serial position in one int; per-flit
  mutable state (current hop, pipeline-ready cycle) lives in parallel
  lists indexed by that int, so moving a flit is a couple of list writes
  instead of a dataclass allocation;
* **pre-drawn injection schedule** — all randomness is consumed up front
  through the shared :mod:`repro.noc.scenarios` contract, so the cycle
  loop itself is branch-predictable and RNG-free;
* **occupancy-driven scanning** — only links with flits in their pipeline
  (``active_pipes``), flows with queued flits (``active_src``) and
  switch outputs some buffered head flit actually requests (per-output
  ``want`` counters, updated whenever a buffer's head changes) are
  visited; idle entities cost nothing;
* **event skipping** — when no source queue or input buffer holds a flit,
  nothing can happen before the earliest pipeline-ready cycle or the next
  scheduled injection, so the clock jumps straight there instead of
  idling one cycle at a time.

Bit-exactness
-------------

The regression suite asserts this engine reproduces the frozen naive
baseline *bit for bit* — identical :class:`~repro.noc.simulator.SimulationStats`
and identical per-cycle delivery traces. That guarantee rests on three
observations:

1. the injection schedule is built by the same scenario code from the same
   freshly-seeded generator, so both simulators inject the same packets on
   the same cycles;
2. every phase visits its entities in the naive loop's order — links in
   ascending id (sorting the active-pipe set), source flows in the same
   rotated order restricted to non-empty queues, switch outputs in the
   naive dict's insertion order with the same round-robin scan — and
   skipped entities are exactly those for which the naive loop's body is a
   no-op (empty deque, empty queue, no buffered head flit routed to the
   output, so the naive scan would refuse every input and leave the
   round-robin pointer untouched);
3. the wormhole send test performs the same comparisons in the same order
   (pipeline slot, then allocation), with packet ids standing in for the
   naive ``(flow, packet_id)`` keys — unique because packet ids are;
4. a skipped cycle is one on which the naive loop performs no state
   change at all: with every source queue and input buffer empty, only a
   ready pipeline head can act, and the skip never jumps past the next
   ready cycle, the next scheduled injection, the injection horizon, or
   the drain bound (so even ``drain_cycles`` matches a cycle-by-cycle
   crawl).

Latency statistics are accumulated as running integer sums; the final
averages divide the same integer totals the naive lists sum to, so the
floats match bit for bit.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from repro.errors import SynthesisError
from repro.noc.scenarios import ScenarioSpec, build_schedule
from repro.rng import make_rng


def simulate(
    sim,
    *,
    seed: int,
    cycles: int,
    warmup: int,
    injection_scale: float,
    scenario: ScenarioSpec = None,
    drain_limit: Optional[int] = None,
    trace: Optional[List[tuple]] = None,
):
    """Run one simulation on the array-based core.

    ``sim`` is a :class:`~repro.noc.simulator.WormholeSimulator` (already
    validated) and ``seed`` the injection-schedule seed (``sim.seed`` for a
    solo :meth:`~repro.noc.simulator.WormholeSimulator.run`); returns a
    :class:`~repro.noc.simulator.SimulationStats`.
    """
    from repro.noc.simulator import SimulationStats  # circular at import time

    if drain_limit is None:
        drain_limit = cycles
    if drain_limit < 0:
        raise SynthesisError("drain limit must be >= 0")

    topo = sim.topology
    L = sim.packet_length
    tail_k = L - 1
    depth = sim.buffer_depth

    flows = sorted(topo.routes)
    F = len(flows)
    rng = make_rng(seed, "wormhole")
    probs = [sim._inject_prob[f] * injection_scale for f in flows]
    schedule = build_schedule(scenario, flows, probs, cycles, rng)

    links = topo.links
    n_links = len(links)
    delay = list(sim._link_delay)
    routes = [topo.routes[f] for f in flows]
    route_len = [len(r) for r in routes]
    first_link = [r[0] for r in routes]
    is_eject = [l.dst[0] == "core" for l in links]

    # Switch arbitration table, in the naive iteration order (ascending
    # output link id — dict insertion order of _inputs_per_link).
    inputs_map = sim._inputs_per_link()
    out_ids = [o for o, inputs in inputs_map.items() if inputs]
    out_inputs = [inputs_map[o] for o in out_ids]
    n_out = len(out_ids)
    rr = [0] * n_out

    # Per-link state: pipeline FIFO of flit ints, ready cycle of the last
    # pipeline entry (valid while the pipe is non-empty), downstream input
    # buffer, and the packet id holding the wormhole allocation (-1 free).
    pipes = [deque() for _ in range(n_links)]
    pipe_last = [0] * n_links
    buffers = [deque() for _ in range(n_links)]
    alloc = [-1] * n_links
    src_q = [deque() for _ in range(F)]
    active_src = set()
    active_pipes = set()
    # want[out_id]: how many input-buffer head flits are routed to out_id.
    # Maintained on every buffer-head change, so arbitration can skip
    # outputs nobody requests without consulting any buffer.
    want = [0] * n_links

    # Per-packet / per-flit state, grown at injection time.
    pkt_flow: List[int] = []    # pid -> flow index
    pkt_cycle: List[int] = []   # pid -> injection cycle
    flit_hop: List[int] = []    # fid -> route hop of the link it is on
    flit_ready: List[int] = []  # fid -> cycle its pipeline delay elapses

    injected = delivered = flits_delivered = 0
    outstanding = 0             # flits injected but not yet ejected
    buffered = 0                # flits currently in input buffers
    lat_sum = lat_n = lat_max = 0
    pf_sum = [0] * F
    pf_n = [0] * F

    # next_inj[c]: first cycle >= c with a scheduled injection (or the
    # horizon) — the event-skip target while the network is empty.
    next_inj = [0] * (cycles + 1)
    next_inj[cycles] = cycles
    for c in range(cycles - 1, -1, -1):
        next_inj[c] = c if schedule[c] else next_inj[c + 1]
    drain_end = cycles + drain_limit

    zeros = [0] * L
    cycle = 0
    while True:
        # 1. Packet generation from the pre-drawn schedule.
        if cycle < cycles:
            row = schedule[cycle]
            if row:
                for fi in row:
                    pid = len(pkt_flow)
                    pkt_flow.append(fi)
                    pkt_cycle.append(cycle)
                    base = pid * L
                    src_q[fi].extend(range(base, base + L))
                    flit_hop += zeros
                    flit_ready += zeros
                    active_src.add(fi)
                outstanding += L * len(row)
                if cycle >= warmup:
                    injected += len(row)
        elif outstanding == 0 or cycle - cycles >= drain_limit:
            break

        # 2. Link delivery: at most one ready flit leaves each link's
        # pipeline per cycle — ejected at a core or moved into the
        # downstream input buffer if credit allows.
        if active_pipes:
            for lid in sorted(active_pipes):
                pipe = pipes[lid]
                fid = pipe[0]
                if flit_ready[fid] > cycle:
                    continue
                if is_eject[lid]:
                    pipe.popleft()
                    if not pipe:
                        active_pipes.discard(lid)
                    flits_delivered += 1
                    outstanding -= 1
                    pid = fid // L
                    if trace is not None:
                        trace.append(("eject", cycle, lid, pid))
                    if fid - pid * L == tail_k:
                        ic = pkt_cycle[pid]
                        if ic >= warmup:
                            lat = cycle - ic
                            delivered += 1
                            lat_sum += lat
                            lat_n += 1
                            if lat > lat_max:
                                lat_max = lat
                            fi = pkt_flow[pid]
                            pf_sum[fi] += lat
                            pf_n[fi] += 1
                        if alloc[lid] == pid:
                            alloc[lid] = -1
                else:
                    buf = buffers[lid]
                    if len(buf) < depth:
                        pipe.popleft()
                        if not pipe:
                            active_pipes.discard(lid)
                        if not buf:
                            # New buffer head: register its requested output.
                            fi = pkt_flow[fid // L]
                            hop_next = flit_hop[fid] + 1
                            if hop_next < route_len[fi]:
                                want[routes[fi][hop_next]] += 1
                        buf.append(fid)
                        buffered += 1
                        if trace is not None:
                            trace.append(("deliver", cycle, lid, fid // L))
                    # else: back-pressure — the flit waits at the link tail.

        # 3. Injection links: source queue -> first link of the route, in
        # the cycle-rotated flow order, visiting only non-empty queues.
        if active_src:
            if len(active_src) == 1:
                order = tuple(active_src)
            else:
                # flows[offset:] + flows[:offset], restricted to active.
                offset = cycle % F
                order = sorted(fi for fi in active_src if fi >= offset)
                order += sorted(fi for fi in active_src if fi < offset)
            for fi in order:
                q = src_q[fi]
                fid = q[0]
                lid = first_link[fi]
                pipe = pipes[lid]
                if pipe and pipe_last[lid] >= cycle + delay[lid]:
                    continue
                pid = fid // L
                k = fid - pid * L
                if k == 0:
                    if alloc[lid] != -1:
                        continue
                    alloc[lid] = pid
                elif alloc[lid] != pid:
                    continue
                ready = cycle + delay[lid]
                flit_ready[fid] = ready
                pipe_last[lid] = ready
                pipe.append(fid)
                active_pipes.add(lid)
                if k == tail_k:
                    alloc[lid] = -1
                q.popleft()
                if not q:
                    active_src.discard(fi)

        # 4. Switch arbitration: for every output link some buffered head
        # flit requests, pick one input buffer (round-robin) whose head
        # flit goes that way.
        for oi in range(n_out):
            out_id = out_ids[oi]
            if not want[out_id]:
                continue
            inputs = out_inputs[oi]
            n = len(inputs)
            start = rr[oi]
            for k2 in range(n):
                pos = start + k2
                if pos >= n:
                    pos -= n
                buf = buffers[inputs[pos]]
                if not buf:
                    continue
                fid = buf[0]
                pid = fid // L
                fi = pkt_flow[pid]
                hop_next = flit_hop[fid] + 1
                if hop_next >= route_len[fi]:
                    continue
                if routes[fi][hop_next] != out_id:
                    continue
                # Wormhole send onto out_id (same test order as the naive
                # _try_send: pipeline slot, then allocation).
                pipe = pipes[out_id]
                if pipe and pipe_last[out_id] >= cycle + delay[out_id]:
                    continue
                k = fid - pid * L
                if k == 0:
                    if alloc[out_id] != -1:
                        continue
                    alloc[out_id] = pid
                elif alloc[out_id] != pid:
                    continue
                ready = cycle + delay[out_id]
                flit_ready[fid] = ready
                pipe_last[out_id] = ready
                pipe.append(fid)
                active_pipes.add(out_id)
                if k == tail_k:
                    alloc[out_id] = -1
                flit_hop[fid] = hop_next
                want[out_id] -= 1
                buf.popleft()
                buffered -= 1
                if buf:
                    # Next flit surfaces: register what it requests.
                    nfid = buf[0]
                    nfi = pkt_flow[nfid // L]
                    nhop = flit_hop[nfid] + 1
                    if nhop < route_len[nfi]:
                        want[routes[nfi][nhop]] += 1
                rr[oi] = pos + 1 if pos + 1 < n else 0
                break  # one flit per output per cycle

        cycle += 1

        # Event skip: with no queued or buffered flit, the naive loop is a
        # no-op until a pipeline head ripens or the schedule injects (a
        # ready head is never back-pressured here — every buffer is
        # empty). Jump there, clamped to horizon and drain bound so the
        # break conditions fire on the same cycle a crawl would reach.
        if not active_src and not buffered and (outstanding or cycle < cycles):
            target = next_inj[cycle] if cycle < cycles else drain_end
            if active_pipes:
                ripe = min(flit_ready[pipes[lid][0]] for lid in active_pipes)
                if ripe < target:
                    target = ripe
            if target > cycle:
                cycle = target

    stats = SimulationStats(
        cycles=cycles,
        packets_injected=injected,
        packets_delivered=delivered,
        flits_delivered=flits_delivered,
        avg_packet_latency=lat_sum / lat_n if lat_n else 0.0,
        max_packet_latency=lat_max if lat_n else 0,
        drain_cycles=cycle - cycles if cycle > cycles else 0,
    )
    for fi, flow in enumerate(flows):
        stats.per_flow_delivered[flow] = pf_n[fi]
        if pf_n[fi]:
            stats.per_flow_latency[flow] = pf_sum[fi] / pf_n[fi]
    return stats
