#!/usr/bin/env python3
"""Working with specification files, and Phase 1 vs Phase 2 trade-offs.

Shows the on-disk input formats of the tool (Sec. IV: the core specification
and communication specification files), then synthesizes the same design
with Phase 1 (cores may attach to switches in any layer) and Phase 2
(layer-by-layer), reproducing the Fig. 13-vs-14 trade-off: Phase 2 needs far
fewer inter-layer links but pays power and latency for the restriction.

Run:  python examples/spec_files_and_phases.py
"""

import tempfile
from pathlib import Path

from repro import SynthesisConfig, synthesize
from repro.bench.registry import get_benchmark
from repro.spec.io import (
    load_comm_spec_text,
    load_core_spec_text,
    save_comm_spec_text,
    save_core_spec_text,
)


def main() -> None:
    bench = get_benchmark("d26_media")

    # Round-trip the benchmark through the text file format.
    with tempfile.TemporaryDirectory() as tmp:
        cores_path = Path(tmp) / "d26_cores.txt"
        comm_path = Path(tmp) / "d26_comm.txt"
        save_core_spec_text(bench.core_spec_3d, cores_path)
        save_comm_spec_text(bench.comm_spec, comm_path)

        print(f"core spec ({cores_path.name}), first lines:")
        for line in cores_path.read_text().splitlines()[:5]:
            print("   " + line)
        print(f"communication spec ({comm_path.name}), first lines:")
        for line in comm_path.read_text().splitlines()[:5]:
            print("   " + line)
        print()

        core_spec = load_core_spec_text(cores_path)
        comm_spec = load_comm_spec_text(comm_path)

    for phase in ("phase1", "phase2"):
        config = SynthesisConfig(
            max_ill=25, phase=phase, switch_count_range=(3, 12)
        )
        result = synthesize(core_spec, comm_spec, config=config)
        if result.is_empty:
            print(f"{phase}: no valid design points")
            continue
        best = result.best_power()
        print(f"{phase}: best {best.summary()}")

    print(
        "\nPhase 2 restricts cores to same-layer switches: fewer vertical\n"
        "links (tight TSV budgets become feasible) at the price of extra\n"
        "switch traversals for every inter-layer flow (Sec. VIII-A)."
    )


if __name__ == "__main__":
    main()
