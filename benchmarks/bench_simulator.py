"""Wormhole simulator — the array engine against the frozen reference.

Not a paper figure: this is the layer floor of :mod:`repro.noc.simengine`.
The end-to-end benchmark (``python3 perfbench/run.py``) times served
simulation campaigns; this script checks the claim it cannot, that the
array engine beats the frozen naive simulator (:mod:`repro.noc.reference`)
on the same topology. Run it with::

    python -m pytest benchmarks/bench_simulator.py -q -s

Every leg simulates the best-power topology of a seeded 26-core synthetic
design, first at the validation load (injection scale 0.3), then
saturated (scale 1.0, bursty scenario), where most cycles find buffered
flits and waiting flows to arbitrate. For each load the script asserts

* a K-seed ``run_batch``, K solo ``run`` calls and the reference produce
  *bit-identical* statistics and per-cycle trajectories, so the speedup
  is pure simulation-machinery cost;
* the solo engine runs >= 3x (validation load) or >= 2x (saturated) the
  reference's cycles/sec. Saturated, the bursty schedule both simulators
  build up front is about a quarter of the engine's run, which caps that
  ratio (2.4-3.0x over five runs on a 2-vCPU x86 box).

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
SATURATED_SCALE = 1.0
SATURATED_SCENARIO = "bursty"
SATURATED_FLOOR = 2.0


@pytest.fixture(scope="module")
def topology():
    bench = synthetic_benchmark(
        26, "distributed", num_layers=3, seed=3, floorplan_moves=800
    )
    config = SynthesisConfig(max_ill=16, switch_count_range=(4, 6))
    return synthesize(
        bench.core_spec_3d, bench.comm_spec, config=config
    ).best_power().topology


def _run(sim_cls, topo, seed=SEED, scale=SCALE, **kwargs):
    return sim_cls(topo, seed=seed).run(
        cycles=CYCLES, warmup=WARMUP, injection_scale=scale, **kwargs
    )


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def _assert_identical(topology, scale=SCALE, scenario=None):
    seeds = list(range(IDENTITY_K))
    batch_traces = [[] for _ in seeds]
    batch = WormholeSimulator(topology).run_batch(
        seeds, cycles=CYCLES, warmup=WARMUP, injection_scale=scale,
        scenario=scenario, traces=batch_traces,
    )
    for i, seed in enumerate(seeds):
        solo_trace, ref_trace = [], []
        solo = _run(WormholeSimulator, topology, seed, scale,
                    scenario=scenario, trace=solo_trace)
        ref = _run(ReferenceWormholeSimulator, topology, seed, scale,
                   scenario=scenario, trace=ref_trace)
        assert batch[i] == solo == ref
        assert batch_traces[i] == solo_trace == ref_trace


def _solo_speedup(topology, label, scale=SCALE, scenario=None):
    """Engine over reference cycles/sec, median of interleaved repeats."""
    kwargs = dict(scale=scale, scenario=scenario)
    _run(WormholeSimulator, topology, **kwargs)  # warm both code paths
    _run(ReferenceWormholeSimulator, topology, **kwargs)
    engine_s, reference_s = [], []
    for _ in range(REPEATS):
        seconds, engine = _timed(_run, WormholeSimulator, topology, **kwargs)
        engine_s.append(seconds)
        seconds, reference = _timed(_run, ReferenceWormholeSimulator,
                                    topology, **kwargs)
        reference_s.append(seconds)
        assert engine == reference

    cycles = CYCLES + engine.drain_cycles
    engine_rate = cycles / statistics.median(engine_s)
    reference_rate = cycles / statistics.median(reference_s)
    speedup = engine_rate / reference_rate
    print(f"\nsolo simulator {label}, median of {REPEATS}: "
          f"reference {reference_rate:,.0f} cycles/s, engine "
          f"{engine_rate:,.0f} cycles/s -> {speedup:.2f}x")
    return speedup


def test_engines_match_reference_trajectories(topology):
    _assert_identical(topology)


def test_solo_engine_beats_reference(topology):
    speedup = _solo_speedup(topology, f"@ scale {SCALE}")
    assert speedup >= SOLO_FLOOR, (
        f"solo engine {speedup:.2f}x below {SOLO_FLOOR}x"
    )


def test_saturated_engines_match_reference_trajectories(topology):
    _assert_identical(topology, SATURATED_SCALE, SATURATED_SCENARIO)


def test_saturated_solo_engine_beats_reference(topology):
    speedup = _solo_speedup(
        topology, f"saturated @ scale {SATURATED_SCALE} {SATURATED_SCENARIO}",
        SATURATED_SCALE, SATURATED_SCENARIO,
    )
    assert speedup >= SATURATED_FLOOR, (
        f"saturated solo engine {speedup:.2f}x below {SATURATED_FLOOR}x"
    )
