"""Balanced k-way min-cut partitioning against the frozen oracle.

Not a paper figure: this is the layer floor of candidate generation in
:mod:`repro.graphs.partition`. The end-to-end benchmark
(``python3 perfbench/run.py --workload synth_registry``) times whole
syntheses and reports ``partition.s``; this script checks the layer claim
behind it, that incremental greedy growth, the pair-stability memo and the
pruned KL scans beat the frozen partitioner
(:func:`repro.engine.reference.naive_kway_min_cut`), which re-sums every
attraction, re-runs every block pair each round and re-scans every cell.
Run it with::

    python -m pytest benchmarks/bench_partition.py -q -s

Both legs replay every ``kway_min_cut`` call of one default d65_pipe
synthesis. The script asserts

* both legs return identical blocks on every repeat, so the speedup is
  pure search cost;
* the live partitioner is >= 2x faster than the oracle.

The ratio is the median of interleaved repeats, single-process, so the
floor does not depend on the CPU count.
"""

import statistics
import time

import pytest

import repro.core.phase1 as phase1
import repro.core.phase2 as phase2
from repro.bench.registry import get_benchmark
from repro.core.pipeline import FlowContext, run_synthesis
from repro.engine.reference import naive_kway_min_cut
from repro.graphs.partition import kway_min_cut

REPEATS = 5
FLOOR = 2.0


@pytest.fixture(scope="module")
def partition_calls():
    """``(n, weights, k)`` of every partitioner call of one d65_pipe
    synthesis."""
    calls = []

    def record(n, weights, k):
        calls.append((n, dict(weights), k))
        return kway_min_cut(n, weights, k)

    bench = get_benchmark("d65_pipe")
    ctx = FlowContext.build(bench.core_spec_3d, bench.comm_spec)
    patched = pytest.MonkeyPatch()
    patched.setattr(phase1, "kway_min_cut", record)
    patched.setattr(phase2, "kway_min_cut", record)
    try:
        run_synthesis(ctx)
    finally:
        patched.undo()
    assert calls
    return calls


def _replay(partitioner, calls):
    """Seconds to partition every recorded graph, and the blocks."""
    start = time.perf_counter()
    blocks = [partitioner(n, weights, k) for n, weights, k in calls]
    return time.perf_counter() - start, blocks


def test_incremental_partitioner_beats_oracle(partition_calls):
    _replay(kway_min_cut, partition_calls)  # warm both code paths off the clock
    _replay(naive_kway_min_cut, partition_calls)
    live_s, naive_s = [], []
    for _ in range(REPEATS):
        seconds, live = _replay(kway_min_cut, partition_calls)
        live_s.append(seconds)
        seconds, naive = _replay(naive_kway_min_cut, partition_calls)
        naive_s.append(seconds)
        assert live == naive

    speedup = statistics.median(naive_s) / statistics.median(live_s)
    print(f"\npartitioning {len(partition_calls)} d65_pipe graphs, median of "
          f"{REPEATS}: oracle {statistics.median(naive_s) * 1e3:.0f} ms, live "
          f"{statistics.median(live_s) * 1e3:.0f} ms -> {speedup:.1f}x")
    assert speedup >= FLOOR, f"live partitioner {speedup:.1f}x below {FLOOR}x"
