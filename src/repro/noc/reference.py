"""Frozen fixed naive wormhole simulator: the per-cycle-scan baseline.

This module preserves, verbatim, the flit-level wormhole simulator as it
existed before the :mod:`repro.noc.simengine` overhaul — per-flit ``_Flit``
dataclass allocation, a full scan of every link, every flow and every
switch output on every cycle — with the two model fixes applied (a link
delivers at most one flit per cycle; the run drains in-flight packets after
the injection horizon). It exists for two reasons (the
:mod:`repro.engine.reference` / :mod:`repro.floorplan.reference` pattern):

* **regression** — tests assert :class:`~repro.noc.simulator.WormholeSimulator`
  (running on the array-based engine) produces *bit-identical* trajectories
  and :class:`~repro.noc.simulator.SimulationStats` for identical seeds,
  scenarios and parameters;
* **benchmarking** — ``benchmarks/bench_simulator.py`` asserts the solo
  and batch engines' throughput floors against this module, and the claim
  only means something against the genuine old code (the end-to-end
  benchmark, ``python3 perfbench/run.py``, times served campaigns).

The unchanged substrate (:class:`~repro.noc.topology.Topology`, the model
library, :mod:`repro.noc.scenarios` and :mod:`repro.rng`) is shared with the
optimised module — injection schedules are pre-built by the scenario library
in both, which is exactly what keeps the random streams aligned.

Do not "optimise" this module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import SynthesisError
from repro.models.library import NocLibrary, default_library
from repro.noc.scenarios import ScenarioSpec, build_schedule
from repro.noc.simulator import SimulationStats
from repro.noc.topology import Topology
from repro.rng import make_rng

Flow = Tuple[int, int]


@dataclass
class _Flit:
    flow: Flow
    packet_id: int
    is_head: bool
    is_tail: bool
    inject_cycle: int
    hop: int  # index into the flow's route (which link it is ON/entering)


class ReferenceWormholeSimulator:
    """The naive cycle-based wormhole simulation (frozen baseline)."""

    def __init__(
        self,
        topology: Topology,
        library: Optional[NocLibrary] = None,
        *,
        buffer_depth: int = 4,
        packet_length_flits: int = 4,
        seed: int = 0,
    ) -> None:
        if not topology.routes:
            raise SynthesisError("topology has no routed flows to simulate")
        if buffer_depth < 1:
            raise SynthesisError("buffer depth must be >= 1")
        if packet_length_flits < 1:
            raise SynthesisError("packet length must be >= 1 flit")
        self.topology = topology
        self.library = library if library is not None else default_library()
        self.buffer_depth = buffer_depth
        self.packet_length = packet_length_flits
        self.seed = seed

        freq = topology.frequency_mhz
        # Per-link pipeline delay in cycles (>= 1 to model the register at
        # the link's tail).
        self._link_delay: List[int] = []
        for link in topology.links:
            delay = self.library.link.pipeline_stages(link.length_mm, freq)
            delay += self.library.tsv.delay_cycles(link.layers_crossed, freq)
            self._link_delay.append(max(1, delay))

        # Injection probability per cycle per flow: a flow of bandwidth B on
        # links of capacity C occupies B/C of the cycles; a packet covers
        # packet_length flit-cycles.
        cap = topology.capacity_mbps
        self._inject_prob: Dict[Flow, float] = {}
        for flow, bw in topology.flow_bandwidth.items():
            self._inject_prob[flow] = min(1.0, bw / cap / self.packet_length)

    # -- simulation ---------------------------------------------------------

    def run(
        self,
        cycles: int = 20_000,
        warmup: int = 2_000,
        injection_scale: float = 1.0,
        *,
        scenario: ScenarioSpec = None,
        drain_limit: Optional[int] = None,
        trace: Optional[List[tuple]] = None,
    ) -> SimulationStats:
        """Inject for ``cycles`` cycles, then drain; stats skip the warmup."""
        if cycles <= warmup:
            raise SynthesisError("cycles must exceed warmup")
        if drain_limit is None:
            drain_limit = cycles
        if drain_limit < 0:
            raise SynthesisError("drain limit must be >= 0")
        rng = make_rng(self.seed, "wormhole")
        topo = self.topology

        flows = sorted(topo.routes)
        probs = [self._inject_prob[f] * injection_scale for f in flows]
        schedule = build_schedule(scenario, flows, probs, cycles, rng)

        # Per-link FIFO of (ready_cycle, flit) modelling wire pipeline, plus
        # an occupancy counter modelling the downstream input buffer credit.
        in_flight: List[Deque[Tuple[int, _Flit]]] = [deque() for _ in topo.links]
        buffers: List[Deque[_Flit]] = [deque() for _ in topo.links]
        # Wormhole allocation: output link id -> (flow, packet_id) currently
        # holding it, or None.
        allocation: Dict[int, Optional[Tuple[Flow, int]]] = {
            l.id: None for l in topo.links
        }
        rr_pointer: Dict[int, int] = {l.id: 0 for l in topo.links}

        # Source queues (unbounded) per flow.
        src_queues: Dict[Flow, Deque[_Flit]] = {f: deque() for f in topo.routes}
        next_packet_id = 0

        injected = 0
        delivered = 0
        flits_delivered = 0
        outstanding = 0  # flits injected but not yet ejected
        latencies: List[int] = []
        per_flow_lat: Dict[Flow, List[int]] = {f: [] for f in topo.routes}

        link_inputs = self._inputs_per_link()

        cycle = 0
        while True:
            # 1. Packet generation (pre-drawn schedule; nothing past the
            # horizon — the drain phase only flushes in-flight packets).
            if cycle < cycles:
                for fi in schedule[cycle]:
                    flow = flows[fi]
                    pid = next_packet_id
                    next_packet_id += 1
                    for k in range(self.packet_length):
                        src_queues[flow].append(_Flit(
                            flow=flow, packet_id=pid,
                            is_head=(k == 0),
                            is_tail=(k == self.packet_length - 1),
                            inject_cycle=cycle, hop=0,
                        ))
                    outstanding += self.packet_length
                    if cycle >= warmup:
                        injected += 1
            elif outstanding == 0 or cycle - cycles >= drain_limit:
                break

            # 2. Link delivery: a flit whose pipeline delay elapsed enters
            # the downstream buffer (or is ejected at a core). At most ONE
            # flit leaves a link per cycle — the link's bandwidth — even
            # when back-pressure left several flits ready at its tail.
            for lid, pipe in enumerate(in_flight):
                if not pipe or pipe[0][0] > cycle:
                    continue
                flit = pipe[0][1]
                route = topo.routes[flit.flow]
                if flit.hop == len(route) - 1:
                    # Final link: ejection into the destination core.
                    pipe.popleft()
                    flits_delivered += 1
                    outstanding -= 1
                    if trace is not None:
                        trace.append(("eject", cycle, lid, flit.packet_id))
                    if flit.is_tail:
                        lat = cycle - flit.inject_cycle
                        if flit.inject_cycle >= warmup:
                            delivered += 1
                            latencies.append(lat)
                            per_flow_lat[flit.flow].append(lat)
                        if allocation[lid] == (flit.flow, flit.packet_id):
                            allocation[lid] = None
                else:
                    if len(buffers[lid]) < self.buffer_depth:
                        pipe.popleft()
                        buffers[lid].append(flit)
                        if trace is not None:
                            trace.append(("deliver", cycle, lid, flit.packet_id))
                    # else: back-pressure — the flit waits at the link tail.

            # 3. Injection links: source queue -> first link of the route.
            # Rotate the service order cycle by cycle so flows sharing an
            # injection link get fair access under saturation.
            offset = cycle % len(flows)
            for flow in flows[offset:] + flows[:offset]:
                queue = src_queues[flow]
                if not queue:
                    continue
                first_link = topo.routes[flow][0]
                flit = queue[0]
                if self._try_send(flit, first_link, allocation, in_flight, cycle):
                    queue.popleft()

            # 4. Switch arbitration: for every output link pick one input
            # buffer (round-robin) whose head flit goes that way.
            for out_id, inputs in link_inputs.items():
                if not inputs:
                    continue
                n = len(inputs)
                start = rr_pointer[out_id]
                for k in range(n):
                    in_id = inputs[(start + k) % n]
                    buf = buffers[in_id]
                    if not buf:
                        continue
                    flit = buf[0]
                    route = topo.routes[flit.flow]
                    if flit.hop + 1 >= len(route):
                        continue
                    if route[flit.hop + 1] != out_id:
                        continue
                    advanced = _Flit(
                        flow=flit.flow, packet_id=flit.packet_id,
                        is_head=flit.is_head, is_tail=flit.is_tail,
                        inject_cycle=flit.inject_cycle, hop=flit.hop + 1,
                    )
                    if self._try_send(advanced, out_id, allocation, in_flight, cycle):
                        buf.popleft()
                        rr_pointer[out_id] = (inputs.index(in_id) + 1) % n
                        break  # one flit per output per cycle
                    # Send refused (output allocated to another packet or
                    # pipeline slot taken): keep scanning — a different
                    # input may hold the packet that owns this output.
                    continue

            cycle += 1

        avg = sum(latencies) / len(latencies) if latencies else 0.0
        stats = SimulationStats(
            cycles=cycles,
            packets_injected=injected,
            packets_delivered=delivered,
            flits_delivered=flits_delivered,
            avg_packet_latency=avg,
            max_packet_latency=max(latencies) if latencies else 0,
            drain_cycles=cycle - cycles if cycle > cycles else 0,
        )
        for flow, vals in per_flow_lat.items():
            stats.per_flow_delivered[flow] = len(vals)
            if vals:
                stats.per_flow_latency[flow] = sum(vals) / len(vals)
        return stats

    # -- helpers -------------------------------------------------------------

    def _try_send(
        self,
        flit: _Flit,
        link_id: int,
        allocation: Dict[int, Optional[Tuple[Flow, int]]],
        in_flight: List[Deque[Tuple[int, _Flit]]],
        cycle: int,
    ) -> bool:
        """Wormhole-aware send of a flit onto a link (one per cycle)."""
        # One flit enters a link per cycle: model by checking the last
        # scheduled entry time.
        pipe = in_flight[link_id]
        if pipe and pipe[-1][0] >= cycle + self._link_delay[link_id]:
            return False
        holder = allocation[link_id]
        key = (flit.flow, flit.packet_id)
        if flit.is_head:
            if holder is not None:
                return False
            allocation[link_id] = key
        else:
            if holder != key:
                return False
        pipe.append((cycle + self._link_delay[link_id], flit))
        if flit.is_tail:
            allocation[link_id] = None
        return True

    def _inputs_per_link(self) -> Dict[int, List[int]]:
        """For each output link of a switch, the input links of that switch."""
        topo = self.topology
        incoming: Dict[int, List[int]] = {}
        for link in topo.links:
            if link.dst[0] == "switch":
                incoming.setdefault(link.dst[1], []).append(link.id)
        outputs: Dict[int, List[int]] = {}
        for link in topo.links:
            if link.src[0] == "switch":
                outputs[link.id] = sorted(incoming.get(link.src[1], []))
        return outputs
