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
  (``active_pipes``), injection links with waiting flows (``imask``,
  with the flows per link in ``lmask``) and switch outputs some buffered
  head flit requests (``wmask``, with the requesting input positions per
  output in ``req``; both updated whenever a buffer's head changes) are
  visited, and within an output only its requesting inputs; idle
  entities cost nothing;
* **event skipping** — when no source queue or input buffer holds a flit,
  nothing can happen before the earliest pipeline-ready cycle or the next
  scheduled injection, so the clock jumps straight there instead of
  idling one cycle at a time.

Bit-exactness
-------------

The regression suite asserts this engine reproduces the frozen naive
baseline *bit for bit* — identical :class:`~repro.noc.simulator.SimulationStats`
and identical per-cycle delivery traces. That guarantee rests on four
observations:

1. the injection schedule is built by the same scenario code from the same
   freshly-seeded generator, so both simulators inject the same packets on
   the same cycles;
2. link delivery and switch arbitration visit their entities in the
   naive loop's order — links in ascending id (sorting the active-pipe
   set), switch outputs in the naive dict's insertion order, each
   output's requesting inputs round-robin from its pointer (the bits at
   or above it, then those below) — and skipped entities are exactly
   those for which the naive loop's body is a no-op (an empty deque, an
   input whose head flit is routed elsewhere, an output no head flit
   requests, where the naive scan refuses every input and leaves the
   round-robin pointer untouched). Outputs are taken from ``wmask`` above
   the one just served, re-read after each send, so a flit that
   surfaces for a later output is served in the same cycle and one for
   an earlier output in the next, as the naive ``for`` loop does;
3. the wormhole send test performs the same comparisons (pipeline slot,
   then allocation), with packet ids standing in for the naive
   ``(flow, packet_id)`` keys — unique because packet ids are. An
   output's pipeline slot depends on the output alone, so it is tested
   once per output instead of once per requesting input. Per-link
   injection equals the naive rotated scan of every flow: every route
   starts with a core's injection link (``Topology.validate_routes``
   checks this of any topology), which only this step sends on,
   once per cycle, and whose allocation only a packet of a flow waiting
   on it can hold, with that packet's next flit at its queue head. So
   when a packet holds the link, every other waiting flow's head flit is
   refused and only the holder's flow can send; when none does, every
   waiting flow offers a head flit and the first in the rotated order
   (the lowest flow bit at or above ``cycle % F``, else the lowest) wins.
   Links share no state in this step and it writes no trace, so the
   order across links does not matter;
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
    first_link = [r[0] for r in routes]
    is_eject = [l.dst[0] == "core" for l in links]

    # Switch arbitration table, in the naive iteration order (ascending
    # output link id — dict insertion order of _inputs_per_link).
    inputs_map = sim._inputs_per_link()
    out_ids = [o for o, inputs in inputs_map.items() if inputs]
    out_inputs = [inputs_map[o] for o in out_ids]
    rr = [0] * len(out_ids)
    # req_of[fi][h]: the request of a buffered flit of flow fi at route
    # hop h — (output index, its input-position bit, the output's bit) —
    # or None where no output's input list holds its link, so the naive
    # scan never serves it (the last hop ejects instead).
    position = {
        (o, in_id): (oi, 1 << pos, 1 << oi)
        for oi, o in enumerate(out_ids)
        for pos, in_id in enumerate(out_inputs[oi])
    }
    req_of = [
        [position.get((r[h + 1], r[h])) for h in range(len(r) - 1)] + [None]
        for r in routes
    ]

    # Per-link state: pipeline FIFO of flit ints, ready cycle of the last
    # pipeline entry (valid while the pipe is non-empty), downstream input
    # buffer, and the packet id holding the wormhole allocation (-1 free).
    pipes = [deque() for _ in range(n_links)]
    pipe_last = [0] * n_links
    buffers = [deque() for _ in range(n_links)]
    alloc = [-1] * n_links
    src_q = [deque() for _ in range(F)]
    active_pipes = set()
    # Request bitmasks, updated on every buffer-head change: req[oi] has a
    # bit per input position whose head flit requests output oi, wmask a
    # bit per output with any request.
    req = [0] * len(out_ids)
    wmask = 0
    # Waiting flows keyed by injection link: lmask[lid] has a bit per flow
    # with queued flits on lid, imask a bit per link with any.
    lmask = [0] * n_links
    imask = 0

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
                    lid = first_link[fi]
                    lmask[lid] |= 1 << fi
                    imask |= 1 << lid
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
                            # New buffer head: register its request.
                            r = req_of[pkt_flow[fid // L]][flit_hop[fid]]
                            if r is not None:
                                req[r[0]] |= r[1]
                                wmask |= r[2]
                        buf.append(fid)
                        buffered += 1
                        if trace is not None:
                            trace.append(("deliver", cycle, lid, fid // L))
                    # else: back-pressure — the flit waits at the link tail.

        # 3. Injection links: source queue -> first link of the route. A
        # link takes one flit per cycle: the allocation holder's next flit
        # if a packet holds it, else the head flit of the first waiting
        # flow in the cycle-rotated order.
        if imask:
            offset = cycle % F
            m = imask
            while m:
                lbit = m & -m
                m ^= lbit
                lid = lbit.bit_length() - 1
                pipe = pipes[lid]
                if pipe and pipe_last[lid] >= cycle + delay[lid]:
                    continue
                holder = alloc[lid]
                waiting = lmask[lid]
                if holder != -1:
                    fi = pkt_flow[holder]
                else:
                    later = waiting >> offset
                    if later:
                        fi = (later & -later).bit_length() - 1 + offset
                    else:
                        fi = (waiting & -waiting).bit_length() - 1
                q = src_q[fi]
                fid = q.popleft()
                pid = fid // L
                k = fid - pid * L
                if k == tail_k:
                    alloc[lid] = -1
                elif k == 0:
                    alloc[lid] = pid
                ready = cycle + delay[lid]
                flit_ready[fid] = ready
                pipe_last[lid] = ready
                pipe.append(fid)
                active_pipes.add(lid)
                if not q:
                    waiting ^= 1 << fi
                    lmask[lid] = waiting
                    if not waiting:
                        imask ^= lbit

        # 4. Switch arbitration: for every output link some buffered head
        # flit requests, in ascending index, serve the first requesting
        # input round-robin from rr[oi] that the wormhole send accepts.
        # wmask is re-read above each output, so a flit that surfaces for
        # a later output is served this cycle, as in the naive scan.
        m = wmask
        while m:
            obit = m & -m
            oi = obit.bit_length() - 1
            m = wmask >> oi + 1 << oi + 1
            out_id = out_ids[oi]
            pipe = pipes[out_id]
            if pipe and pipe_last[out_id] >= cycle + delay[out_id]:
                continue
            bits = req[oi]
            start = rr[oi]
            walk = bits >> start << start
            rest = bits ^ walk
            holder = alloc[out_id]
            while True:
                if not walk:
                    if not rest:
                        break
                    walk = rest
                    rest = 0
                b = walk & -walk
                walk ^= b
                pos = b.bit_length() - 1
                buf = buffers[out_inputs[oi][pos]]
                fid = buf[0]
                pid = fid // L
                k = fid - pid * L
                # Wormhole allocation: a head flit needs the output free,
                # a body flit must belong to the packet holding it.
                if k == 0:
                    if holder != -1:
                        continue
                    alloc[out_id] = pid
                elif holder != pid:
                    continue
                ready = cycle + delay[out_id]
                flit_ready[fid] = ready
                pipe_last[out_id] = ready
                pipe.append(fid)
                active_pipes.add(out_id)
                if k == tail_k:
                    alloc[out_id] = -1
                flit_hop[fid] += 1
                buf.popleft()
                buffered -= 1
                bits ^= b
                req[oi] = bits
                if not bits:
                    wmask ^= obit
                if buf:
                    # Next flit surfaces: register its request.
                    nfid = buf[0]
                    r = req_of[pkt_flow[nfid // L]][flit_hop[nfid]]
                    if r is not None:
                        req[r[0]] |= r[1]
                        wmask |= r[2]
                        m = wmask >> oi + 1 << oi + 1
                rr[oi] = pos + 1 if pos + 1 < len(out_inputs[oi]) else 0
                break  # one flit per output per cycle

        cycle += 1

        # Event skip: with no queued or buffered flit, the naive loop is a
        # no-op until a pipeline head ripens or the schedule injects (a
        # ready head is never back-pressured here — every buffer is
        # empty). Jump there, clamped to horizon and drain bound so the
        # break conditions fire on the same cycle a crawl would reach.
        if not imask and not buffered and (outstanding or cycle < cycles):
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
