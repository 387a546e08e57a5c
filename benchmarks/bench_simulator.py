"""Wormhole simulator — the array engine against the frozen reference.

Not a paper figure: this is the layer floor of :mod:`repro.noc.simengine`.
The end-to-end benchmark (``python3 perfbench/run.py``) times served
simulation campaigns; this script checks the claim it cannot, that the
array engine beats the frozen naive simulator (:mod:`repro.noc.reference`)
on the same topology. Run it with::

    python -m pytest benchmarks/bench_simulator.py -q -s

Every leg simulates the best-power topology of a seeded 26-core synthetic
design at the validation load (injection scale 0.3). The script asserts

* a K-seed ``run_batch``, K solo ``run`` calls and the reference produce
  *bit-identical* statistics and per-cycle trajectories, so the speedup
  is pure simulation-machinery cost;
* the solo engine runs >= 3x the reference's cycles/sec.

The ratio is the median of interleaved repeats, single-process on one
core, so the floor does not depend on the CPU count.
"""

import statistics
import time

import pytest

from repro.bench.synthetic import synthetic_benchmark
from repro.core.config import SynthesisConfig
from repro.core.synthesis import synthesize
from repro.noc.reference import ReferenceWormholeSimulator
from repro.noc.simulator import WormholeSimulator

SCALE = 0.3
SEED = 5
CYCLES = 4_000
WARMUP = CYCLES // 10
REPEATS = 5
IDENTITY_K = 4
SOLO_FLOOR = 3.0


@pytest.fixture(scope="module")
def topology():
    bench = synthetic_benchmark(
        26, "distributed", num_layers=3, seed=3, floorplan_moves=800
    )
    config = SynthesisConfig(max_ill=16, switch_count_range=(4, 6))
    return synthesize(
        bench.core_spec_3d, bench.comm_spec, config=config
    ).best_power().topology


def _run(sim_cls, topo, seed=SEED, **kwargs):
    return sim_cls(topo, seed=seed).run(
        cycles=CYCLES, warmup=WARMUP, injection_scale=SCALE, **kwargs
    )


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def test_engines_match_reference_trajectories(topology):
    seeds = list(range(IDENTITY_K))
    batch_traces = [[] for _ in seeds]
    batch = WormholeSimulator(topology).run_batch(
        seeds, cycles=CYCLES, warmup=WARMUP, injection_scale=SCALE,
        traces=batch_traces,
    )
    for i, seed in enumerate(seeds):
        solo_trace, ref_trace = [], []
        solo = _run(WormholeSimulator, topology, seed, trace=solo_trace)
        ref = _run(ReferenceWormholeSimulator, topology, seed,
                   trace=ref_trace)
        assert batch[i] == solo == ref
        assert batch_traces[i] == solo_trace == ref_trace


def test_solo_engine_beats_reference(topology):
    _run(WormholeSimulator, topology)  # warm both code paths off the clock
    _run(ReferenceWormholeSimulator, topology)
    engine_s, reference_s = [], []
    for _ in range(REPEATS):
        seconds, engine = _timed(_run, WormholeSimulator, topology)
        engine_s.append(seconds)
        seconds, reference = _timed(_run, ReferenceWormholeSimulator,
                                    topology)
        reference_s.append(seconds)
        assert engine == reference

    cycles = CYCLES + engine.drain_cycles
    engine_rate = cycles / statistics.median(engine_s)
    reference_rate = cycles / statistics.median(reference_s)
    speedup = engine_rate / reference_rate
    print(f"\nsolo simulator @ scale {SCALE}, median of {REPEATS}: "
          f"reference {reference_rate:,.0f} cycles/s, engine "
          f"{engine_rate:,.0f} cycles/s -> {speedup:.2f}x")
    assert speedup >= SOLO_FLOOR, (
        f"solo engine {speedup:.2f}x below {SOLO_FLOOR}x"
    )
