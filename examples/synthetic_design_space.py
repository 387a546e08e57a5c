#!/usr/bin/env python3
"""Design-space exploration on generated SoCs + a Markdown design report.

Uses the parametric benchmark generator to create SoCs of each traffic
archetype (distributed / pipeline / bottleneck / random), explores every
archetype's 3-D design space on the **parallel engine** (one task per
archetype, fanned across a worker pool — see docs/engine.md), compares
against the serial 2-D baseline, and writes a full Markdown report for one
design.

Run:  python examples/synthetic_design_space.py [report.md] [--jobs N]
"""

import dataclasses
import sys

from repro.bench.synthetic import PATTERNS, synthetic_benchmark
from repro.core.config import SynthesisConfig
from repro.core.synthesis import synthesize
from repro.engine import ParameterGrid, build_tasks, run_tasks
from repro.graphs.comm_graph import build_comm_graph
from repro.reports import save_report


def main() -> None:
    jobs = 0  # one worker per CPU; --jobs 1 forces serial
    argv = [a for a in sys.argv[1:]]
    if "--jobs" in argv:
        at = argv.index("--jobs")
        try:
            jobs = int(argv[at + 1])
        except (IndexError, ValueError):
            sys.exit("usage: synthetic_design_space.py [report.md] [--jobs N]")
        del argv[at:at + 2]

    config = SynthesisConfig(max_ill=12, switch_count_range=(2, 6))
    benches = {
        pattern: synthetic_benchmark(
            12, pattern, num_layers=2, seed=7,
            total_bandwidth=6000.0, floorplan_moves=1500,
        )
        for pattern in PATTERNS
    }

    # One engine task per archetype: the whole exploration fans out at once.
    tasks = [
        dataclasses.replace(task, key=pattern)
        for pattern, bench in benches.items()
        for task in build_tasks(
            bench.core_spec_3d, bench.comm_spec, ParameterGrid(), config
        )
    ]
    results = {
        r.key: r.result
        for r in run_tasks(
            tasks, jobs=jobs,
            progress=lambda d, t, k: print(f"  [{d}/{t}] {k} synthesized"),
        )
    }

    print(f"\n{'pattern':12s} {'2-D mW':>8s} {'3-D mW':>8s} {'saving':>7s} "
          f"{'lat 2D':>7s} {'lat 3D':>7s}")
    last_pattern, last_result = None, None
    for pattern, bench in benches.items():
        r3 = results[pattern]
        core_spec_2d, config_2d = bench.variant("2d", config)
        r2 = synthesize(core_spec_2d, bench.comm_spec, config=config_2d)
        if r3.is_empty or r2.is_empty:
            print(f"{pattern:12s}  (no valid design points)")
            continue
        p3, p2 = r3.best_power(), r2.best_power()
        saving = 100.0 * (1.0 - p3.total_power_mw / p2.total_power_mw)
        print(f"{pattern:12s} {p2.total_power_mw:8.1f} {p3.total_power_mw:8.1f} "
              f"{saving:6.1f}% {p2.avg_latency_cycles:7.2f} "
              f"{p3.avg_latency_cycles:7.2f}")
        last_pattern, last_result = pattern, r3

    if last_result is not None:
        bench = benches[last_pattern]
        graph = build_comm_graph(bench.core_spec_3d, bench.comm_spec)
        path = argv[0] if argv else "synthetic_report.md"
        save_report(last_result, path, graph,
                    title="Synthetic SoC design report")
        print(f"\nwrote the full design report to {path}")


if __name__ == "__main__":
    main()
