"""Flit-level wormhole NoC simulator.

A validation substrate for the analytic zero-load latency model used in the
paper's tables: packets are injected per flow at the specified bandwidth
(shaped by a :mod:`repro.noc.scenarios` traffic scenario), traverse their
static synthesized route flit by flit under wormhole flow control
(per-input-link FIFO buffers, credit back-pressure, round-robin output
arbitration, one-cycle switch traversal, multi-cycle pipelined links), and
per-packet latency is recorded.

At low utilisation the measured average latency converges to the analytic
zero-load value plus the packet serialisation time; under load it grows with
contention — behaviour the analytic model deliberately ignores.

Model invariants:

* a link accepts at most one flit per cycle at its head *and* delivers at
  most one flit per cycle at its tail — back-pressure can delay a flit but
  never lets the pipeline dump its backlog in a burst;
* after the injection horizon the network *drains*: in-flight packets keep
  moving (no new injections) until the network empties or a drain bound is
  hit, so at light load the delivery ratio is exactly 1.0 rather than
  structurally undercounting packets injected near the horizon.

:meth:`WormholeSimulator.run` executes on the array-based engine of
:mod:`repro.noc.simengine`; the frozen pre-optimisation baseline lives in
:mod:`repro.noc.reference` and the regression suite asserts both produce
bit-identical trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SynthesisError
from repro.models.library import NocLibrary, default_library
from repro.noc import batchengine, simengine
from repro.noc.scenarios import ScenarioSpec
from repro.noc.topology import Topology

Flow = Tuple[int, int]


@dataclass
class SimulationStats:
    """Results of one simulation run.

    ``cycles`` is the injection horizon; ``drain_cycles`` counts the extra
    post-horizon cycles simulated to flush in-flight packets.
    """

    cycles: int
    packets_injected: int
    packets_delivered: int
    flits_delivered: int
    avg_packet_latency: float
    max_packet_latency: int
    per_flow_latency: Dict[Flow, float] = field(default_factory=dict)
    per_flow_delivered: Dict[Flow, int] = field(default_factory=dict)
    drain_cycles: int = 0

    @property
    def delivery_ratio(self) -> float:
        if self.packets_injected == 0:
            return 1.0
        return self.packets_delivered / self.packets_injected


class WormholeSimulator:
    """Cycle-based wormhole simulation over a routed :class:`Topology`."""

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
        """Inject for ``cycles`` cycles, then drain; stats skip the warmup.

        Args:
            cycles: Injection horizon (must exceed ``warmup``).
            warmup: Packets injected before this cycle are simulated but not
                counted in the statistics.
            injection_scale: Multiplier on every flow's specification rate.
            scenario: Traffic scenario (name, spec string or
                :class:`~repro.noc.scenarios.TrafficScenario`); ``None`` is
                the per-flow Bernoulli process.
            drain_limit: Maximum post-horizon cycles to flush in-flight
                packets (``None`` = ``cycles``; ``0`` = stop at the horizon,
                the pre-drain behaviour).
            trace: Optional list collecting per-cycle link-delivery events
                ``("deliver"|"eject", cycle, link_id, packet_id)`` — the
                trajectory the regression suite compares between this engine
                and the frozen reference.
        """
        if cycles <= warmup:
            raise SynthesisError("cycles must exceed warmup")
        return simengine.simulate(
            self,
            seed=self.seed,
            cycles=cycles,
            warmup=warmup,
            injection_scale=injection_scale,
            scenario=scenario,
            drain_limit=drain_limit,
            trace=trace,
        )

    def run_batch(
        self,
        seeds,
        cycles: int = 20_000,
        warmup: int = 2_000,
        injection_scale: float = 1.0,
        *,
        scenario: object = None,
        drain_limit: Optional[int] = None,
        traces: Optional[List[list]] = None,
    ) -> List[SimulationStats]:
        """Run one replication per seed, in seed order.

        ``seeds`` are the K replication seeds (the simulator's own ``seed``
        attribute is ignored); ``scenario`` is one
        :data:`~repro.noc.scenarios.ScenarioSpec` for every replication or
        a sequence of K specs. Each returned stats object — and, with
        ``traces`` given, each replication's per-cycle event list — is the
        one a solo :meth:`run` at that seed produces.
        """
        if cycles <= warmup:
            raise SynthesisError("cycles must exceed warmup")
        return batchengine.simulate_batch(
            self,
            cycles=cycles,
            warmup=warmup,
            injection_scale=injection_scale,
            seeds=seeds,
            scenario=scenario,
            drain_limit=drain_limit,
            traces=traces,
        )

    # -- helpers -------------------------------------------------------------

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


def simulate_design_point(
    point,
    *,
    cycles: int = 20_000,
    warmup: int = 2_000,
    injection_scale: float = 1.0,
    seed: int = 0,
    library: Optional[NocLibrary] = None,
    buffer_depth: int = 4,
    packet_length_flits: int = 4,
    scenario: ScenarioSpec = None,
    drain_limit: Optional[int] = None,
) -> SimulationStats:
    """Convenience wrapper: simulate a :class:`DesignPoint`'s topology."""
    sim = WormholeSimulator(
        point.topology, library,
        buffer_depth=buffer_depth,
        packet_length_flits=packet_length_flits,
        seed=seed,
    )
    return sim.run(
        cycles=cycles, warmup=warmup, injection_scale=injection_scale,
        scenario=scenario, drain_limit=drain_limit,
    )
