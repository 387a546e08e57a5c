"""Micro-benchmarks of the substrates (runtime characterisation).

The paper reports "it takes a few seconds to build a topology with few
switches" on 2009 hardware; these micro-benchmarks time the pieces that
dominate: the min-cut partitioner, the placement LP, the floorplanner, one
full single-point synthesis, and the wormhole simulator.
"""

import pytest

from repro.core.assignment import assignment_from_blocks
from repro.core.config import SynthesisConfig
from repro.core.paths import build_topology_skeleton, compute_paths
from repro.core.placement import optimise_switch_positions
from repro.core.pipeline import FlowContext
from repro.core.synthesis import synthesize
from repro.bench.registry import get_benchmark
from repro.floorplan.annealer import anneal_floorplan
from repro.graphs.comm_graph import build_comm_graph
from repro.graphs.partition import kway_min_cut
from repro.models.library import default_library
from repro.noc.simulator import WormholeSimulator
from repro.rng import make_rng


@pytest.fixture(scope="module")
def d26():
    return get_benchmark("d26_media")


def test_partitioner_26_cores(benchmark, d26):
    graph = build_comm_graph(d26.core_spec_3d, d26.comm_spec)
    weights = graph.symmetric_bandwidth()
    blocks = benchmark(kway_min_cut, graph.n, weights, 6)
    assert len(blocks) == 6


def test_placement_lp_26_cores(benchmark, d26):
    cfg = SynthesisConfig(max_ill=25)
    ctx = FlowContext.build(d26.core_spec_3d, d26.comm_spec, config=cfg)
    graph = ctx.graph
    weights = graph.symmetric_bandwidth()
    blocks = kway_min_cut(graph.n, weights, 6)
    assignment = assignment_from_blocks(blocks, graph, "mean", "phase1")
    lib = default_library()
    centers = ctx.core_centers
    topo = build_topology_skeleton(assignment, graph, lib, cfg, centers)
    compute_paths(topo, graph, lib, cfg, centers)
    die_w, die_h = ctx.die_bounds

    obj = benchmark(optimise_switch_positions, topo, centers, die_w, die_h)
    assert obj > 0


def test_floorplanner_16_blocks(benchmark):
    rng = make_rng(0, "bench-floorplan")
    widths = [rng.uniform(0.8, 2.0) for _ in range(16)]
    heights = [rng.uniform(0.8, 2.0) for _ in range(16)]
    result = benchmark(anneal_floorplan, widths, heights, None, None,
                       seed=1, moves=2000)
    assert result.area > 0


def test_single_point_synthesis_d26(benchmark, d26):
    cfg = SynthesisConfig(max_ill=25, switch_count_range=(6, 6))

    def run():
        return synthesize(d26.core_spec_3d, d26.comm_spec, config=cfg)

    result = benchmark(run)
    assert not result.is_empty


def test_wormhole_simulator_10k_cycles(benchmark, d26):
    cfg = SynthesisConfig(max_ill=25, switch_count_range=(6, 6))
    point = synthesize(
        d26.core_spec_3d, d26.comm_spec, config=cfg
    ).best_power()
    sim = WormholeSimulator(point.topology, seed=0)
    stats = benchmark.pedantic(
        sim.run, kwargs={"cycles": 10_000, "warmup": 1_000}, rounds=1, iterations=1
    )
    assert stats.packets_delivered > 0
