"""Algorithm 3 routing — row-priced Dijkstra against the frozen oracle.

Not a paper figure: this is the layer floor of the routing stage in
:mod:`repro.core.paths`. The end-to-end benchmark
(``python3 perfbench/run.py --workload synth_registry``) times whole
syntheses and reports ``stage.routing.s``; this script checks the layer
claim behind it, that pricing each popped switch's row from state kept
current per commit beats the frozen router
(:func:`repro.engine.reference.naive_compute_paths`), which re-evaluates
:func:`repro.core.paths._edge_cost` on every relaxation. Run it with::

    python -m pytest benchmarks/bench_routing.py -q -s

Both legs replay every ``compute_paths`` call of one default d65_pipe
synthesis, each from a fresh copy of the skeleton it was given. The
script asserts

* both legs give identical routed topologies (or identical errors) on
  every repeat, so the speedup is pure pricing cost;
* the live router is >= 5x faster than the oracle.

The ratio is the median of interleaved repeats, single-process, so the
floor does not depend on the CPU count.
"""

import copy
import statistics
import time

import pytest

import repro.core.pipeline as pipeline
from repro.bench.registry import get_benchmark
from repro.core.paths import compute_paths
from repro.core.pipeline import FlowContext, run_synthesis
from repro.engine.reference import naive_compute_paths
from repro.errors import PathComputationError
from repro.noc.export import topology_to_dict

REPEATS = 5
FLOOR = 5.0


@pytest.fixture(scope="module")
def routing_calls():
    """``(skeleton, graph, library, config, centers)`` of every routing
    call of one d65_pipe synthesis."""
    calls = []

    def record(topology, *args):
        calls.append((copy.deepcopy(topology),) + args)
        compute_paths(topology, *args)

    bench = get_benchmark("d65_pipe")
    ctx = FlowContext.build(bench.core_spec_3d, bench.comm_spec)
    patched = pytest.MonkeyPatch()
    patched.setattr(pipeline, "compute_paths", record)
    try:
        run_synthesis(ctx)
    finally:
        patched.undo()
    assert calls
    return calls


def _replay(router, calls):
    """Seconds to route fresh copies of every skeleton, and the outcomes."""
    skeletons = [copy.deepcopy(skeleton) for skeleton, *_ in calls]
    outcomes = []
    start = time.perf_counter()
    for topology, (_, *args) in zip(skeletons, calls):
        try:
            router(topology, *args)
            outcomes.append(topology)
        except PathComputationError as exc:
            outcomes.append(str(exc))
    seconds = time.perf_counter() - start
    return seconds, [
        o if isinstance(o, str) else topology_to_dict(o) for o in outcomes
    ]


def test_row_priced_routing_beats_oracle(routing_calls):
    _replay(compute_paths, routing_calls)  # warm both code paths off the clock
    _replay(naive_compute_paths, routing_calls)
    live_s, naive_s = [], []
    for _ in range(REPEATS):
        seconds, live = _replay(compute_paths, routing_calls)
        live_s.append(seconds)
        seconds, naive = _replay(naive_compute_paths, routing_calls)
        naive_s.append(seconds)
        assert live == naive

    speedup = statistics.median(naive_s) / statistics.median(live_s)
    routed = sum(isinstance(o, dict) for o in live)
    print(f"\nrouting {len(routing_calls)} d65_pipe candidates ({routed} "
          f"routed), median of {REPEATS}: oracle "
          f"{statistics.median(naive_s) * 1e3:.0f} ms, live "
          f"{statistics.median(live_s) * 1e3:.0f} ms -> {speedup:.1f}x")
    assert speedup >= FLOOR, f"live router {speedup:.1f}x below {FLOOR}x"
