"""Floorplanning layers against their frozen references.

Not a paper figure: these are the layer floors of
:mod:`repro.floorplan.engine` and :mod:`repro.floorplan.inserter`. The
end-to-end benchmark (``python3 perfbench/run.py``) times the whole flow;
this script checks the one claim it cannot, that each optimised layer
beats its frozen naive reference (:mod:`repro.floorplan.reference`) on the
same problem. Run it with::

    python -m pytest benchmarks/bench_floorplan_anneal.py -q -s

Both anneals solve the 2-D floorplan (blocks plus bandwidth-weighted nets)
of a seeded 26-core synthetic design with identical seeds. Both inserters
fill every layer the floorplan stage builds while synthesising d65_pipe.
The script asserts

* the incremental annealer and the naive reference produce *bit-identical*
  floorplans (positions, sequence pair, area, wirelength, cost, move
  counts), so the speedup is pure evaluation cost;
* the incremental annealer runs >= 3x the naive reference's moves/sec,
  single-threaded, on the median of interleaved repeats;
* the window-pruned inserter places every component exactly where
  :func:`~repro.floorplan.reference.naive_insert_components` does, with
  the same insertion statistics, and fills the layers >= 3x faster on the
  median of interleaved repeats.
"""

import statistics
import time

from repro.bench.floorplans import _bandwidth_nets
from repro.bench.registry import get_benchmark
from repro.bench.synthetic import synthetic_benchmark
from repro.core import pipeline
from repro.core.config import SynthesisConfig
from repro.floorplan.annealer import anneal_floorplan
from repro.floorplan.inserter import InsertionReport, insert_components
from repro.floorplan.reference import (
    naive_anneal_floorplan,
    naive_insert_components,
)
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


def _d65_pipe_layers(monkeypatch):
    """Every ``insert_components`` call the floorplan stage makes while
    synthesising d65_pipe with the default config."""
    calls = []

    def record(existing, new_components, **kwargs):
        calls.append((existing, new_components, kwargs))
        return insert_components(existing, new_components, **kwargs)

    monkeypatch.setattr(pipeline, "insert_components", record)
    bench = get_benchmark("d65_pipe")
    pipeline.run_synthesis(pipeline.FlowContext.build(
        bench.core_spec_3d, bench.comm_spec, None, SynthesisConfig()
    ), jobs=1)
    monkeypatch.undo()
    return calls


def _fill_layers(insert, calls, with_layer):
    out = []
    for existing, new_components, kwargs in calls:
        kwargs = dict(kwargs)
        if not with_layer:
            del kwargs["layer"]
        report = InsertionReport()
        placed = insert(existing, new_components, report=report, **kwargs)
        out.append((placed, report))
    return out


def test_windowed_inserter_beats_reference(monkeypatch):
    calls = _d65_pipe_layers(monkeypatch)
    components = sum(len(new) for _existing, new, _kwargs in calls)

    inserter_s, reference_s = [], []
    for _ in range(REPEATS):
        seconds, fast = _timed(_fill_layers, insert_components, calls, True)
        inserter_s.append(seconds)
        seconds, slow = _timed(_fill_layers, naive_insert_components, calls,
                               False)
        reference_s.append(seconds)
        assert fast == slow

    speedup = statistics.median(reference_s) / statistics.median(inserter_s)
    print(f"\nNoC inserter: d65_pipe, {len(calls)} layers, {components} "
          f"components, median of {REPEATS}: reference "
          f"{statistics.median(reference_s):.3f} s, windowed "
          f"{statistics.median(inserter_s):.3f} s -> {speedup:.2f}x")
    assert speedup >= SPEEDUP_FLOOR, (
        f"windowed inserter {speedup:.2f}x below {SPEEDUP_FLOOR}x"
    )
