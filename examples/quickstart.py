#!/usr/bin/env python3
"""Quickstart: synthesize a custom 3-D NoC for a small hand-written SoC.

Builds an 8-core, 2-layer system-on-chip specification, runs the SunFloor 3D
flow, prints the trade-off points, and validates the chosen design with the
flit-level wormhole simulator.

Run:  python examples/quickstart.py
"""

from repro import (
    CommSpec,
    Core,
    CoreSpec,
    SynthesisConfig,
    TrafficFlow,
    synthesize,
)
from repro.noc.simulator import WormholeSimulator
from repro.spec import MessageType


def build_specs():
    """A small media SoC: CPU + DSP + memories + peripherals on 2 layers."""
    cores = CoreSpec(cores=[
        #    name     w    h     x    y   layer
        Core("CPU", 1.4, 1.2, 0.0, 0.0, 0),
        Core("DSP", 1.2, 1.0, 1.6, 0.0, 0),
        Core("DMA", 0.8, 0.8, 0.0, 1.4, 0),
        Core("DISP", 0.9, 0.7, 1.6, 1.2, 0),
        Core("MEM0", 1.6, 1.4, 0.0, 0.0, 1),   # stacked above CPU
        Core("MEM1", 1.6, 1.4, 1.8, 0.0, 1),   # stacked above DSP
        Core("SDRAM", 1.4, 1.2, 0.0, 1.6, 1),
        Core("ACC", 1.0, 0.9, 1.8, 1.6, 1),
    ])
    flows = CommSpec(flows=[
        TrafficFlow("CPU", "MEM0", 400, 8),
        TrafficFlow("MEM0", "CPU", 320, 8, MessageType.RESPONSE),
        TrafficFlow("DSP", "MEM1", 350, 8),
        TrafficFlow("MEM1", "DSP", 500, 8, MessageType.RESPONSE),
        TrafficFlow("DSP", "ACC", 450, 6),
        TrafficFlow("ACC", "DISP", 380, 6),
        TrafficFlow("DMA", "SDRAM", 250, 12),
        TrafficFlow("CPU", "SDRAM", 180, 10),
        TrafficFlow("CPU", "DSP", 90, 10),
        TrafficFlow("DMA", "MEM0", 120, 12),
    ])
    return cores, flows


def main() -> None:
    core_spec, comm_spec = build_specs()

    config = SynthesisConfig(
        frequency_mhz=400.0,   # NoC clock
        max_ill=10,            # TSV budget: at most 10 links per boundary
        objective="power",
    )
    result = synthesize(core_spec, comm_spec, config=config)

    print(f"valid design points: {len(result.points)} "
          f"(unmet switch counts: {result.unmet_switch_counts})")
    for point in sorted(result.points, key=lambda p: p.switch_count):
        print("  " + point.summary())

    best = result.best_power()
    print("\nchosen design (best power):")
    print(f"  switches: {best.switch_count}, "
          f"vertical links: {best.metrics.num_vertical_links}, "
          f"die area: {best.die_area_mm2:.2f} mm^2")
    for sw in best.topology.switches:
        cores = [core_spec.names[c] for c, s in
                 best.topology.core_to_switch.items() if s == sw.id]
        print(f"  sw{sw.id} (layer {sw.layer}) <- {', '.join(cores)}")

    # Validate with the wormhole simulator at 50% of the specified load
    # (at 100% offered load a wormhole network with shallow buffers sits at
    # its saturation point and queueing dominates).
    sim = WormholeSimulator(best.topology, seed=0)
    stats = sim.run(cycles=20_000, warmup=2_000, injection_scale=0.5)
    print(f"\nsimulation at 50% load: "
          f"{stats.packets_delivered}/{stats.packets_injected} packets "
          f"delivered, avg latency {stats.avg_packet_latency:.2f} cycles "
          f"(zero-load analytic avg: {best.avg_latency_cycles:.2f}; the gap "
          "is serialisation + link pipeline registers + queueing)")


if __name__ == "__main__":
    main()
