"""Indirect switches (Sec. VI): repair for switch-size infeasibility.

"When paths are computed, if it is not feasible to meet the
max_switch_size constraints, we introduce new switches in the topology that
are used to connect the other switches together."

The repair mechanism (:func:`repro.core.paths._try_add_indirect_switch`) is
tested directly; full-flow tests check that routing still succeeds under
heavy port pressure and that, with the repair patched out, synthesis never
produces indirect switches.
"""

import copy

import pytest

from repro.core import paths
from repro.core.assignment import assignment_from_blocks
from repro.core.config import SynthesisConfig
from repro.core.paths import (
    _try_add_indirect_switch,
    build_topology_skeleton,
    compute_paths,
)
from repro.engine.reference import naive_compute_paths
from repro.errors import PathComputationError
from repro.graphs.comm_graph import build_comm_graph
from repro.models.library import default_library
from repro.noc.export import topology_to_dict
from repro.spec.comm_spec import CommSpec, TrafficFlow
from repro.spec.core_spec import Core, CoreSpec


def _all_to_all_setup(max_size_slope: float = 112.0):
    """Five 2-core switches with all-to-all inter-switch traffic, under a
    library limiting switches to 4 ports at 400 MHz."""
    n = 10
    cores = CoreSpec(cores=[
        Core(f"C{i}", 1, 1, 1.4 * (i % 5), 1.4 * (i // 5), 0) for i in range(n)
    ])
    flows = []
    firsts = [0, 2, 4, 6, 8]
    for a in firsts:
        for b in firsts:
            if a != b:
                flows.append(TrafficFlow(f"C{a}", f"C{b}", 60, 20))
    comm = CommSpec(flows=flows)
    graph = build_comm_graph(cores, comm)
    library = default_library().with_switch(fmax_slope_mhz_per_port=max_size_slope)
    config = SynthesisConfig(max_ill=25)
    blocks = [[2 * k, 2 * k + 1] for k in range(5)]
    assignment = assignment_from_blocks(blocks, graph, "mean", "phase1")
    centers = {i: c.center for i, c in enumerate(cores)}
    topo = build_topology_skeleton(assignment, graph, library, config, centers)
    return topo, graph, library, config, centers


@pytest.fixture
def no_repair(monkeypatch):
    """Routing with the indirect-switch repair switched off."""
    monkeypatch.setattr(
        paths, "_try_add_indirect_switch", lambda *args: False
    )


class TestRepairMechanism:
    def test_adds_coreless_switch_on_flow_layer(self):
        topo, graph, lib, cfg, centers = _all_to_all_setup()
        before = len(topo.switches)
        added = _try_add_indirect_switch(topo, 0, 2, set())
        assert added
        assert len(topo.switches) == before + 1
        new = topo.switches[-1]
        assert new.is_indirect
        assert new.layer == 0
        assert all(s != new.id for s in topo.core_to_switch.values())

    def test_position_is_layer_centroid(self):
        topo, graph, lib, cfg, centers = _all_to_all_setup()
        peers = [s for s in topo.switches if s.layer == 0]
        expect_x = sum(p.x for p in peers) / len(peers)
        _try_add_indirect_switch(topo, 0, 2, set())
        assert topo.switches[-1].x == expect_x

    def test_one_per_layer(self):
        topo, graph, lib, cfg, centers = _all_to_all_setup()
        seen = set()
        assert _try_add_indirect_switch(topo, 0, 2, seen)
        # All switches are on layer 0 here; a second request must refuse.
        assert not _try_add_indirect_switch(topo, 0, 2, seen)


class TestFullFlowUnderPortPressure:
    def test_all_to_all_routes_within_size_limit(self):
        topo, graph, lib, cfg, centers = _all_to_all_setup()
        max_size = lib.switch.max_switch_size(cfg.frequency_mhz)
        assert max_size == 4
        compute_paths(topo, graph, lib, cfg, centers)
        for sw in topo.switches:
            assert sw.size <= max_size
        assert len(topo.routes) == len(graph.edges)

    def test_disabled_indirect_never_creates_one(self, small_specs, no_repair):
        core_spec, comm_spec = small_specs
        from repro.core.synthesis import synthesize

        cfg = SynthesisConfig(max_ill=12)
        result = synthesize(core_spec, comm_spec, config=cfg)
        for p in result.points:
            assert not any(sw.is_indirect for sw in p.topology.switches)


def _max_ill_setup():
    """Four cores on two layers, one switch each, under max_ill=2: routed in
    bandwidth order, flow C3->C2 finds no path over the four core switches,
    and routes once one indirect switch per layer is in. Found by a random
    search over small hand-assigned designs."""
    cores = CoreSpec(cores=[
        Core("C0", 1, 1, 0.0, 0.0, 0), Core("C1", 1, 1, 1.4, 0.0, 1),
        Core("C2", 1, 1, 2.8, 0.0, 0), Core("C3", 1, 1, 0.0, 1.4, 1),
    ])
    comm = CommSpec(flows=[
        TrafficFlow("C3", "C2", 50, 20),
        TrafficFlow("C2", "C1", 600, 8),
        TrafficFlow("C0", "C3", 200, 8),
        TrafficFlow("C3", "C0", 200, 20),
        TrafficFlow("C1", "C0", 50, 8),
    ])
    graph = build_comm_graph(cores, comm)
    library = default_library()
    config = SynthesisConfig(max_ill=2)
    assignment = assignment_from_blocks(
        [[0], [3], [1], [2]], graph, "mean", "phase1"
    )
    centers = {i: c.center for i, c in enumerate(cores)}
    topo = build_topology_skeleton(assignment, graph, library, config, centers)
    return topo, graph, library, config, centers


class TestRepairChangesTheOutcome:
    def test_indirect_switch_lets_the_flow_route(self):
        skeleton, *args = _max_ill_setup()
        routed = copy.deepcopy(skeleton)
        compute_paths(routed, *args)
        assert [sw.layer for sw in routed.switches if sw.is_indirect] == [1, 0]
        assert len(routed.routes) == len(args[0].edges)
        naive = copy.deepcopy(skeleton)
        naive_compute_paths(naive, *args)
        assert topology_to_dict(routed) == topology_to_dict(naive)

    def test_without_the_repair_the_flow_fails(self, no_repair):
        skeleton, *args = _max_ill_setup()
        with pytest.raises(PathComputationError, match="flow 3->2"):
            compute_paths(skeleton, *args)
