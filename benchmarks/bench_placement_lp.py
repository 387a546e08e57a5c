"""The switch-placement LP against its frozen oracle.

Not a paper figure: this is the layer floor of the ``placement_lp`` stage
(:mod:`repro.core.placement`). The end-to-end benchmark
(``python3 perfbench/run.py --workload synth_registry``) times whole
syntheses and reports ``lp.s`` and ``stage.placement_lp.s``; this script
checks the layer claim behind them, that building Eqs. 2-5 as arrays and
lowering them with numpy beats the frozen per-row construction
(:func:`repro.engine.reference.naive_optimise_switch_positions`), which
adds one named variable and one constraint dict at a time. Both legs
solve through ``LinearProgram.solve`` and HiGHS, whose own time is the
same in both. Run it with::

    python -m pytest benchmarks/bench_placement_lp.py -q -s

Both legs replay every placement LP of one pass of the end-to-end
benchmark's ``synth_registry`` workload (default syntheses of d26_media,
d36_8, d38_tvopd and d65_pipe). The script asserts

* both legs return the same objective and bitwise-equal switch positions
  on every repeat;
* the live path is >= 1.4x faster than the oracle.

The ratio is the median of interleaved repeats, single-process, so the
floor does not depend on the CPU count.
"""

import copy
import statistics
import time

import pytest

import repro.core.pipeline as pipeline
from repro.bench.registry import get_benchmark
from repro.core.config import SynthesisConfig
from repro.core.pipeline import FlowContext, run_synthesis
from repro.core.placement import optimise_switch_positions
from repro.engine.reference import naive_optimise_switch_positions

BENCHMARKS = ("d26_media", "d36_8", "d38_tvopd", "d65_pipe")
REPEATS = 5
FLOOR = 1.4


@pytest.fixture(scope="module")
def placement_lps():
    """``(topology, core_centers, width, height)`` of every placement LP of
    the four syntheses, each topology as it was before its LP."""
    lps = []

    def record(topo, centres, width, height):
        lps.append((copy.deepcopy(topo), dict(centres), width, height))
        return optimise_switch_positions(topo, centres, width, height)

    patched = pytest.MonkeyPatch()
    patched.setattr(pipeline, "optimise_switch_positions", record)
    try:
        for name in BENCHMARKS:
            bench = get_benchmark(name, seed=0)
            run_synthesis(FlowContext.build(
                bench.core_spec_3d, bench.comm_spec, None, SynthesisConfig()
            ), jobs=1)
    finally:
        patched.undo()
    assert lps
    return lps


def _replay(optimise, lps):
    """Seconds to solve every recorded LP, and the objectives and switch
    positions (as exact float bits)."""
    topologies = [copy.deepcopy(topo) for topo, *_rest in lps]
    start = time.perf_counter()
    objectives = [
        optimise(topo, centres, width, height)
        for topo, (_t, centres, width, height) in zip(topologies, lps)
    ]
    seconds = time.perf_counter() - start
    positions = [
        [(type(sw.x), sw.x.hex(), type(sw.y), sw.y.hex())
         for sw in topo.switches]
        for topo in topologies
    ]
    return seconds, ([obj.hex() for obj in objectives], positions)


def test_array_built_lp_beats_oracle(placement_lps):
    # Warm both code paths off the clock.
    _replay(optimise_switch_positions, placement_lps)
    _replay(naive_optimise_switch_positions, placement_lps)
    live_s, naive_s = [], []
    for _ in range(REPEATS):
        seconds, live = _replay(optimise_switch_positions, placement_lps)
        live_s.append(seconds)
        seconds, naive = _replay(naive_optimise_switch_positions,
                                 placement_lps)
        naive_s.append(seconds)
        assert live == naive

    speedup = statistics.median(naive_s) / statistics.median(live_s)
    print(f"\n{len(placement_lps)} placement LPs of {', '.join(BENCHMARKS)}, "
          f"median of {REPEATS}: oracle {statistics.median(naive_s):.2f} s, "
          f"live {statistics.median(live_s):.2f} s -> {speedup:.2f}x")
    assert speedup >= FLOOR, f"array-built LP {speedup:.2f}x below {FLOOR}x"
