"""Benchmark suite generators.

The paper evaluates on proprietary SoC benchmarks; this package rebuilds
them synthetically with the published structure:

* ``d26_media`` — 26-core multimedia & wireless SoC (ARM, DSPs, memories,
  DMA, accelerators, peripherals) on 3 layers (Sec. VIII-A, Figs. 9/16);
* ``d36_4`` / ``d36_6`` / ``d36_8`` — 18 processors + 18 memories, each
  processor communicating with 4/6/8 memories at equal total bandwidth
  (Sec. VIII-B);
* ``d35_bot`` — bottleneck: 16 processors, 16 private memories, 3 shared
  memories all processors access;
* ``d65_pipe`` — 65-core pipeline;
* ``d38_tvopd`` — 38-core pipelined video object-plane-decoder-like design.

Every benchmark carries a 3-D core spec (layer assignment + per-layer
floorplan) and the communication spec; ``Benchmark.variant(dims, config)``
also yields the 2-D variant (same cores, single-die floorplan built on
first use) — everything the 2-D-vs-3-D comparison needs.
"""

from repro.bench.builder import Benchmark, build_benchmark
from repro.bench.registry import (
    TABLE1_BENCHMARKS,
    get_benchmark,
    list_benchmarks,
)

__all__ = [
    "Benchmark",
    "build_benchmark",
    "get_benchmark",
    "list_benchmarks",
    "TABLE1_BENCHMARKS",
]
