"""Floorplan annealing — the incremental evaluator against its frozen reference.

Not a paper figure: this is the layer floor of :mod:`repro.floorplan.engine`.
The end-to-end benchmark (``python3 perfbench/run.py``) times the whole
flow; this script checks the one claim it cannot, that the optimised layer
beats its frozen naive reference (:mod:`repro.floorplan.reference`) on the
same problem. Run it with::

    python -m pytest benchmarks/bench_floorplan_anneal.py -q -s

Both anneals solve the 2-D floorplan (blocks plus bandwidth-weighted nets)
of a seeded 26-core synthetic design with identical seeds. The script
asserts

* the incremental annealer and the naive reference produce *bit-identical*
  floorplans (positions, sequence pair, area, wirelength, cost, move
  counts), so the speedup is pure evaluation cost;
* the incremental annealer runs >= 3x the naive reference's moves/sec,
  single-threaded, on the median of interleaved repeats.
"""

import statistics
import time

from repro.bench.floorplans import _bandwidth_nets
from repro.bench.synthetic import synthetic_benchmark
from repro.floorplan.annealer import anneal_floorplan
from repro.floorplan.reference import naive_anneal_floorplan
from repro.graphs.comm_graph import build_comm_graph

MOVES = 1500
REPEATS = 5
SPEEDUP_FLOOR = 3.0


def _problem():
    bench = synthetic_benchmark(
        26, "distributed", num_layers=3, seed=3, floorplan_moves=800
    )
    core_spec = bench.core_spec_2d
    graph = build_comm_graph(core_spec, bench.comm_spec)
    widths = [c.width for c in core_spec]
    heights = [c.height for c in core_spec]
    nets = _bandwidth_nets(graph, list(range(len(core_spec))))
    return widths, heights, nets


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def test_incremental_anneal_beats_reference():
    widths, heights, nets = _problem()
    kwargs = dict(wirelength_weight=1.0, seed=7, moves=MOVES)
    # Warm both code paths (numpy import, rng digest) off the clock.
    anneal_floorplan(widths, heights, nets, **{**kwargs, "moves": 50})
    naive_anneal_floorplan(widths, heights, nets, **{**kwargs, "moves": 50})

    engine_s, reference_s = [], []
    for _ in range(REPEATS):
        seconds, engine = _timed(anneal_floorplan, widths, heights, nets,
                                 **kwargs)
        engine_s.append(seconds)
        seconds, reference = _timed(naive_anneal_floorplan, widths, heights,
                                    nets, **kwargs)
        reference_s.append(seconds)
        assert engine == reference

    engine_rate = MOVES / statistics.median(engine_s)
    reference_rate = MOVES / statistics.median(reference_s)
    speedup = engine_rate / reference_rate
    print(f"\nfloorplan anneal: {len(widths)} blocks, {MOVES} moves, "
          f"median of {REPEATS}: reference {reference_rate:,.0f} moves/s, "
          f"incremental {engine_rate:,.0f} moves/s -> {speedup:.2f}x")
    assert speedup >= SPEEDUP_FLOOR, (
        f"incremental annealer {speedup:.2f}x below {SPEEDUP_FLOOR}x"
    )
