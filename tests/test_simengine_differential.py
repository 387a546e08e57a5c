"""The wormhole engine against the frozen reference on generated topologies.

``tests/test_simengine.py`` pins :mod:`repro.noc.simengine` to
:class:`repro.noc.reference.ReferenceWormholeSimulator` on two hand-built
topologies. Here Hypothesis draws the topology too: random switches on
random layers, cores attached to random switches, a ring of switch links
plus random extra (sometimes parallel) ones, link lengths that give one-
to many-cycle pipelines, and up to three flows per source core, so an
injection link is both held by a packet and free for the rotated scan.
Routes follow randomised breadth-first paths; a few topologies deadlock,
which both simulators must do alike. Each case also draws the packet
length (1-5 flits), buffer depth (1-4), a load from light to saturation,
the scenario (Bernoulli, hotspot, bursty) and the drain limit, and the two
simulators must give equal :class:`~repro.noc.simulator.SimulationStats`
and equal per-cycle traces.

Two pinned examples always run: one topology with more than 64 links (so
every request mask spans more than one machine word) and one whose switch
feeds an output from many inputs under saturation (so round-robin wraps).
``make fuzz`` runs the generated test under the large ``fuzz`` profile
(``tests/conftest.py``).
"""

import random
from collections import deque
from typing import NamedTuple, Optional

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.noc.reference import ReferenceWormholeSimulator
from repro.noc.simulator import WormholeSimulator
from repro.noc.topology import Topology

LENGTHS_MM = (0.0, 0.5, 1.5, 4.0, 9.0)
SCALES = (0.05, 0.3, 1.0, 3.0, 10.0)
SCENARIOS = (None, "hotspot", "bursty", "hotspot:2", "bursty:20")


class Case(NamedTuple):
    switches: int
    cores: int
    extra_links: int
    flows_per_core: int
    topo_seed: int
    seed: int
    packet_len: int
    depth: int
    cycles: int
    warmup: int
    scale: float
    scenario: Optional[str]
    drain_limit: Optional[int]


def build_topology(case: Case) -> Topology:
    """A routed topology drawn from ``case.topo_seed``."""
    rng = random.Random(case.topo_seed)
    topo = Topology(frequency_mhz=rng.choice([400.0, 800.0]), width_bits=32)
    n = case.switches
    for _ in range(n):
        topo.add_switch(rng.randrange(3))
    for core in range(case.cores):
        topo.attach_core(core, rng.randrange(n), rng.randrange(3))
    out_links = {s: [] for s in range(n)}
    if n > 1:
        for s in range(n):
            out_links[s].append(topo.add_switch_link(s, (s + 1) % n))
        for _ in range(case.extra_links):
            a, b = rng.sample(range(n), 2)
            out_links[a].append(topo.add_switch_link(a, b))
    for link in topo.links:
        link.length_mm = rng.choice(LENGTHS_MM)

    cap = topo.capacity_mbps
    for src in range(case.cores):
        others = [c for c in range(case.cores) if c != src]
        count = rng.randint(1, min(case.flows_per_core, len(others)))
        for dst in rng.sample(others, count):
            hops = _random_path(rng, out_links, topo.core_to_switch[src],
                                topo.core_to_switch[dst])
            topo.record_route(
                (src, dst),
                [topo.injection_link(src).id] + [l.id for l in hops]
                + [topo.ejection_link(dst).id],
                [topo.core_to_switch[src]] + [l.dst[1] for l in hops],
                cap * rng.uniform(0.02, 0.4),
            )
    topo.validate_routes()
    return topo


def _random_path(rng, out_links, start, goal):
    """Switch links of a breadth-first path, neighbours in random order."""
    came = {start: None}
    frontier = deque([start])
    while goal not in came:
        s = frontier.popleft()
        for link in rng.sample(out_links[s], len(out_links[s])):
            if link.dst[1] not in came:
                came[link.dst[1]] = link
                frontier.append(link.dst[1])
    hops = []
    while came[goal] is not None:
        hops.append(came[goal])
        goal = came[goal].src[1]
    return hops[::-1]


@st.composite
def cases(draw):
    cycles = draw(st.integers(60, 400))
    return Case(
        switches=draw(st.integers(1, 6)),
        cores=draw(st.integers(2, 10)),
        extra_links=draw(st.integers(0, 6)),
        flows_per_core=draw(st.integers(1, 3)),
        topo_seed=draw(st.integers(0, 2**16)),
        seed=draw(st.integers(0, 2**16)),
        packet_len=draw(st.integers(1, 5)),
        depth=draw(st.integers(1, 4)),
        cycles=cycles,
        warmup=draw(st.integers(0, cycles // 3)),
        scale=draw(st.sampled_from(SCALES)),
        scenario=draw(st.sampled_from(SCENARIOS)),
        drain_limit=draw(st.sampled_from([0, 25, None])),
    )


# 88 links (80 core links plus 8 switch links) and 79 flows, so the link
# and flow masks span two machine words.
WIDE = Case(switches=4, cores=40, extra_links=4, flows_per_core=3,
            topo_seed=0, seed=3, packet_len=3, depth=2, cycles=300,
            warmup=30, scale=1.0, scenario="bursty", drain_limit=None)
# Six of ten cores on one of two switches, saturated: the outputs of that
# switch have up to nine inputs competing round-robin.
CROWDED = Case(switches=2, cores=10, extra_links=2, flows_per_core=3,
               topo_seed=1, seed=0, packet_len=2, depth=1, cycles=300,
               warmup=0, scale=10.0, scenario=None, drain_limit=40)


def _run(sim_cls, topo, case, trace):
    sim = sim_cls(topo, seed=case.seed, packet_length_flits=case.packet_len,
                  buffer_depth=case.depth)
    return sim.run(cycles=case.cycles, warmup=case.warmup,
                   injection_scale=case.scale, scenario=case.scenario,
                   drain_limit=case.drain_limit, trace=trace)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
@example(case=WIDE)
@example(case=CROWDED)
def test_generated_topologies_simulate_like_the_reference(case):
    topo = build_topology(case)
    engine_trace, reference_trace = [], []
    engine = _run(WormholeSimulator, topo, case, engine_trace)
    reference = _run(ReferenceWormholeSimulator, topo, case, reference_trace)
    assert engine == reference
    assert engine_trace == reference_trace


def test_pinned_examples_cover_the_wide_and_crowded_cases():
    wide = build_topology(WIDE)
    assert len(wide.links) > 64 and len(wide.routes) > 64
    crowded = build_topology(CROWDED)
    sim = WormholeSimulator(crowded)
    assert max(len(ins) for ins in sim._inputs_per_link().values()) >= 3
    for topo in (wide, crowded):
        first_links = [route[0] for route in topo.routes.values()]
        assert len(set(first_links)) < len(first_links)  # shared injection
