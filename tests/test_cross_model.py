"""The wormhole simulator against the analytic latency model, on generated
specs.

:func:`repro.noc.metrics.flow_latency_cycles` is the zero-load latency the
paper's tables report: ``w`` cycles per switch (``w = 1``,
``library.switch.delay_cycles()``), each link's pipeline stages beyond the
first, and its TSV cycles. The simulator counts a packet's latency from
the cycle it is generated to the cycle its tail flit is ejected. Alone in
the network, the head flit enters the injection link in its generation
cycle, crosses link ``i`` in ``d_i = stages_i + tsv_i`` cycles and leaves
each input buffer in the cycle it arrives, and each of the other
``L - 1`` flits follows one cycle behind. So the tail ejects
``sum(d_i) + L - 1`` cycles after generation. A route through ``S``
switches has ``S + 1`` links, so ``sum(d_i)`` is the analytic value plus
``S + 1 - S * w``, and the gap between the two models is

    G = (S + 1 - S * w) + (L - 1) = L = packet_length_flits

cycles for ``w = 1`` (``docs/simulator.md``). Contention only delays
flits, so every
packet, and hence every flow's mean, is at least the analytic value plus
``G`` at any load; at light load the least-contended flow comes within
a cycle of it.

Each generated spec (``synthetic_benchmark`` of every traffic pattern) is
synthesized, and each best point (best power, best latency) is simulated:

* at light load: delivery ratio 1.0, every flow's latency at least
  analytic + ``G``, and the smallest per-flow gap under ``G + 1``;
* saturated, with a generous drain limit: every injected flit drains. The
  synthesized routes are deadlock-free, so a point that does not drain is
  a finding, not a bound to relax.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.bench.synthetic import PATTERNS, synthetic_benchmark
from repro.core.config import SynthesisConfig
from repro.core.synthesis import synthesize
from repro.models.library import default_library
from repro.noc.metrics import flow_latency_cycles
from repro.noc.simulator import WormholeSimulator

LIGHT_SCALE = 0.1
SATURATED_SCALE = 3.0
CYCLES = 1500


@st.composite
def synthesized(draw):
    bench = synthetic_benchmark(
        draw(st.integers(6, 14)),
        draw(st.sampled_from(PATTERNS)),
        draw(st.integers(2, 3)),
        seed=draw(st.integers(0, 100)),
        with_responses=draw(st.booleans()),
        floorplan_moves=50,
    )
    low = draw(st.integers(1, 3))
    config = SynthesisConfig(
        frequency_mhz=draw(st.sampled_from([400.0, 600.0, 800.0])),
        max_ill=draw(st.sampled_from([4, 25])),
        switch_count_range=(low, low + 2),
    )
    result = synthesize(bench.core_spec_3d, bench.comm_spec, config=config)
    assume(result.points)
    packet_len = draw(st.integers(1, 5))
    return result, packet_len, draw(st.integers(0, 3))


@pytest.mark.slow
@settings(
    max_examples=50, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=synthesized())
def test_best_points_simulate_within_the_analytic_model(case):
    result, packet_len, seed = case
    library = default_library()
    for point in {id(p): p for p in (result.best_power(),
                                     result.best_latency())}.values():
        topo = point.topology
        sim = WormholeSimulator(topo, packet_length_flits=packet_len,
                                seed=seed)

        light = sim.run(cycles=CYCLES, warmup=CYCLES // 10,
                        injection_scale=LIGHT_SCALE)
        assert light.packets_injected > 0
        assert light.delivery_ratio == 1.0
        gaps = [
            measured - flow_latency_cycles(topo, flow, library)
            for flow, measured in light.per_flow_latency.items()
        ]
        assert min(gaps) >= packet_len - 1e-9
        assert min(gaps) < packet_len + 1

        drain_limit = 20 * CYCLES
        saturated = sim.run(cycles=CYCLES, warmup=0,
                            injection_scale=SATURATED_SCALE,
                            drain_limit=drain_limit)
        assert saturated.drain_cycles < drain_limit
        assert saturated.packets_delivered == saturated.packets_injected
        assert saturated.flits_delivered == (
            packet_len * saturated.packets_injected
        )
