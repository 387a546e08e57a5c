"""Algorithm 3 routing against its frozen oracle on generated designs.

:func:`repro.core.paths.compute_paths` prices each popped switch's row
from state it keeps current as flows commit; the frozen
:func:`repro.engine.reference.naive_compute_paths` re-evaluates
:func:`repro.core.paths._edge_cost` in full on every relaxation. On every
generated input both must give the same routed topology (routes, link
loads, port counts, inter-layer link counts) or fail with the same
:class:`~repro.errors.PathComputationError` message.

Hypothesis draws ``synthetic_benchmark`` specs of all four traffic
patterns (8-30 cores, 2-4 layers, with and without response flows) and the
configuration knobs that steer the router into its rarer branches: a small
``max_ill`` (hard INF and soft thresholds on inter-layer links), links
across non-adjacent layers, tight latency ranges (the min-hop retry),
indirect switches on or off, every flow order, and several frequencies
(switch size limits). A second test replays every routing call of one
registry synthesis. ``make fuzz`` runs the generated test under the large
``fuzz`` profile (``tests/conftest.py``).
"""

import copy
from typing import List

from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.pipeline as pipeline
from repro.bench.registry import get_benchmark
from repro.bench.synthetic import PATTERNS, synthetic_benchmark
from repro.core.config import SynthesisConfig
from repro.core.paths import build_topology_skeleton, compute_paths
from repro.core.phase1 import phase1_candidate
from repro.core.pipeline import FlowContext, run_synthesis
from repro.engine.reference import naive_compute_paths
from repro.errors import PathComputationError
from repro.graphs.comm_graph import build_comm_graph
from repro.models.library import default_library
from repro.noc.export import topology_to_dict

FLOW_ORDERS = ("bandwidth_desc", "bandwidth_asc", "spec")


def _routed(router, topology, *args):
    """The routed topology as a dict, or the router's error message."""
    try:
        router(topology, *args)
    except PathComputationError as exc:
        return str(exc)
    return topology_to_dict(topology)


@st.composite
def routing_cases(draw):
    num_cores = draw(st.integers(8, 30))
    lo = draw(st.sampled_from([3.0, 6.0, 8.0, 8.0]))
    bench = synthetic_benchmark(
        num_cores,
        draw(st.sampled_from(PATTERNS)),
        draw(st.integers(2, 4)),
        seed=draw(st.integers(0, 3)),
        with_responses=draw(st.booleans()),
        latency_range=(lo, lo + draw(st.sampled_from([1.0, 4.0, 8.0]))),
        floorplan_moves=50,
    )
    config = SynthesisConfig(
        frequency_mhz=draw(st.sampled_from([300.0, 400.0, 400.0, 600.0, 800.0])),
        max_ill=draw(st.sampled_from([0, 2, 4, 6, 8, 25, 25])),
        use_soft_thresholds=draw(st.booleans()),
        flow_order=draw(st.sampled_from(FLOW_ORDERS)),
    )
    count = draw(st.integers(2, min(10, num_cores)))
    return bench, config, count


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(routing_cases())
def test_generated_designs_route_like_the_oracle(case):
    bench, config, count = case
    library = default_library()
    graph = build_comm_graph(bench.core_spec_3d, bench.comm_spec)
    centers = {i: core.center for i, core in enumerate(bench.core_spec_3d)}
    assignment = phase1_candidate(
        graph, config.alpha, config.switch_layer_mode, count
    )
    try:
        skeletons = [
            build_topology_skeleton(assignment, graph, library, config, centers)
            for _ in range(2)
        ]
    except PathComputationError:
        return  # pruned before routing: nothing to compare
    args = (graph, library, config, centers)
    assert _routed(compute_paths, skeletons[0], *args) == _routed(
        naive_compute_paths, skeletons[1], *args
    )


def test_registry_synthesis_routes_like_the_oracle(monkeypatch):
    """Every routing call of one d26_media synthesis, replayed through both
    routers from the same skeleton."""
    calls: List[tuple] = []

    def record(topology, *args):
        calls.append((copy.deepcopy(topology),) + args)
        compute_paths(topology, *args)

    monkeypatch.setattr(pipeline, "compute_paths", record)
    bench = get_benchmark("d26_media")
    run_synthesis(FlowContext.build(bench.core_spec_3d, bench.comm_spec))
    assert calls
    outcomes = []
    for skeleton, *args in calls:
        ours = _routed(compute_paths, copy.deepcopy(skeleton), *args)
        assert ours == _routed(naive_compute_paths, skeleton, *args)
        outcomes.append(isinstance(ours, dict))
    assert any(outcomes)
