"""Path computation (repro.core.paths, Sec. VI / Algorithm 3)."""

import pytest

from repro.core.assignment import assignment_from_blocks
from repro.core.config import SynthesisConfig
from repro.core.paths import build_topology_skeleton, compute_paths
from repro.errors import PathComputationError
from repro.graphs.comm_graph import build_comm_graph
from repro.models.library import default_library
from repro.noc.deadlock import ChannelDependencyGraph
from repro.spec.comm_spec import CommSpec, TrafficFlow
from repro.spec.core_spec import Core, CoreSpec


def _setup(layers, flows, blocks, config=None, mode="mean"):
    cores = CoreSpec(cores=[
        Core(f"C{i}", 1, 1, 1.5 * (i % 3), 1.5 * (i // 3), layer)
        for i, layer in enumerate(layers)
    ])
    comm = CommSpec(flows=[TrafficFlow(*f) for f in flows])
    graph = build_comm_graph(cores, comm)
    config = config or SynthesisConfig(max_ill=10)
    library = default_library()
    assignment = assignment_from_blocks(blocks, graph, mode, "phase1")
    centers = {i: c.center for i, c in enumerate(cores)}
    topo = build_topology_skeleton(assignment, graph, library, config, centers)
    return topo, graph, library, config, centers


class TestSkeleton:
    def test_switch_positions_are_core_centroids(self):
        topo, *_ = _setup([0, 0], [("C0", "C1", 100, 8)], [[0, 1]])
        sw = topo.switches[0]
        assert sw.x == pytest.approx((0.5 + 2.0) / 2)

    def test_oversized_switch_rejected(self):
        layers = [0] * 14
        flows = [("C0", "C1", 100, 8)]
        with pytest.raises(PathComputationError, match="size limit"):
            _setup(layers, flows, [list(range(14))])

    def test_ill_precheck_in_skeleton(self):
        # 6 cores on L0/L2 all attached to a single switch on L1: each core
        # link crosses a boundary; with max_ill=2 the skeleton must fail.
        layers = [0, 0, 0, 2, 2, 2]
        flows = [("C0", "C3", 100, 8)]
        cfg = SynthesisConfig(max_ill=2)
        with pytest.raises(PathComputationError, match="max_ill"):
            _setup(layers, flows, [[0, 1, 2, 3, 4, 5]], cfg)


class TestRouting:
    def test_same_switch_flow_single_hop(self):
        topo, graph, lib, cfg, centers = _setup(
            [0, 0], [("C0", "C1", 100, 8)], [[0, 1]]
        )
        compute_paths(topo, graph, lib, cfg, centers)
        assert topo.switch_routes[(0, 1)] == [0]
        assert len(topo.routes[(0, 1)]) == 2  # inj + ej

    def test_two_switch_flow_creates_link(self):
        topo, graph, lib, cfg, centers = _setup(
            [0, 0, 1, 1],
            [("C0", "C2", 100, 8)],
            [[0, 1], [2, 3]],
        )
        compute_paths(topo, graph, lib, cfg, centers)
        assert topo.switch_routes[(0, 2)] == [0, 1]
        assert topo.num_switch_links == 1
        assert topo.num_vertical_links >= 1

    def test_reuses_link_with_capacity(self):
        topo, graph, lib, cfg, centers = _setup(
            [0, 0, 1, 1],
            [("C0", "C2", 400, 8), ("C1", "C3", 400, 8)],
            [[0, 1], [2, 3]],
        )
        compute_paths(topo, graph, lib, cfg, centers)
        assert topo.num_switch_links == 1  # both flows share it
        link = [l for l in topo.links if not l.is_core_link][0]
        assert link.load_mbps == pytest.approx(800.0)

    def test_opens_parallel_link_when_full(self):
        topo, graph, lib, cfg, centers = _setup(
            [0, 0, 1, 1],
            [("C0", "C2", 1000, 8), ("C1", "C3", 1000, 8)],
            [[0, 1], [2, 3]],
        )
        compute_paths(topo, graph, lib, cfg, centers)
        assert topo.num_switch_links == 2  # 2000 > 1600 capacity

    def test_flow_exceeding_capacity_rejected(self):
        topo, graph, lib, cfg, centers = _setup(
            [0, 0], [("C0", "C1", 2000, 8)], [[0, 1]]
        )
        with pytest.raises(PathComputationError, match="capacity"):
            compute_paths(topo, graph, lib, cfg, centers)

    def test_adjacent_only_blocks_layer_skip(self):
        # Switches on L0 and L2 only; flow must fail (no L1 switch).
        topo, graph, lib, cfg, centers = _setup(
            [0, 0, 2, 2],
            [("C0", "C2", 100, 8)],
            [[0, 1], [2, 3]],
        )
        with pytest.raises(PathComputationError):
            compute_paths(topo, graph, lib, cfg, centers)

    def test_multi_hop_through_middle_layer(self):
        topo, graph, lib, cfg, centers = _setup(
            [0, 0, 1, 1, 2, 2],
            [("C0", "C4", 100, 8)],
            [[0, 1], [2, 3], [4, 5]],
        )
        compute_paths(topo, graph, lib, cfg, centers)
        assert topo.switch_routes[(0, 4)] == [0, 1, 2]

    def test_routes_are_deadlock_free(self):
        topo, graph, lib, cfg, centers = _setup(
            [0, 0, 1, 1, 2, 2],
            [
                ("C0", "C2", 100, 8), ("C2", "C4", 100, 8),
                ("C4", "C0", 100, 8), ("C1", "C5", 100, 8),
                ("C5", "C3", 100, 8), ("C3", "C1", 100, 8),
            ],
            [[0, 1], [2, 3], [4, 5]],
        )
        compute_paths(topo, graph, lib, cfg, centers)
        cdg = ChannelDependencyGraph()
        for (src, dst), link_ids in topo.routes.items():
            flow = graph.edges[(src, dst)]
            assert not cdg.creates_cycle(link_ids, flow.message_type)
            cdg.add_path(link_ids, flow.message_type)
        assert cdg.is_deadlock_free()

    def test_latency_constraint_enforced(self):
        # A 3-hop route cannot meet a 2-cycle latency budget.
        topo, graph, lib, cfg, centers = _setup(
            [0, 0, 1, 1, 2, 2],
            [("C0", "C4", 100, 2)],
            [[0, 1], [2, 3], [4, 5]],
        )
        with pytest.raises(PathComputationError):
            compute_paths(topo, graph, lib, cfg, centers)

    def test_max_ill_forces_failure(self):
        cfg = SynthesisConfig(max_ill=0)
        topo, graph, lib, cfg, centers = _setup(
            [0, 0, 1, 1],
            [("C0", "C2", 100, 8)],
            [[0, 1], [2, 3]],
            cfg,
        )
        with pytest.raises(PathComputationError):
            compute_paths(topo, graph, lib, cfg, centers)

    def test_routes_validated_and_capacity_checked(self):
        topo, graph, lib, cfg, centers = _setup(
            [0, 0, 1, 1],
            [("C0", "C2", 100, 8), ("C3", "C1", 50, 8)],
            [[0, 1], [2, 3]],
        )
        compute_paths(topo, graph, lib, cfg, centers)
        topo.validate_routes()  # must not raise
        assert topo.check_capacity() == []
        assert set(topo.routes) == {(0, 2), (3, 1)}
