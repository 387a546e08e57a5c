"""Algorithm 3 cost evaluation (repro.core.paths._edge_cost)."""

import pytest

from repro.core.config import SynthesisConfig
from repro.core.paths import INF, _edge_cost, _make_cost_model
from repro.graphs.comm_graph import build_comm_graph
from repro.models.library import default_library
from repro.noc.topology import Topology
from repro.spec.comm_spec import CommSpec, TrafficFlow
from repro.spec.core_spec import Core, CoreSpec


def _setup(num_layers=3, max_ill=10, **cfg_kwargs):
    cores = CoreSpec(cores=[
        Core(f"C{i}", 1, 1, 1.5 * i, 0, min(i, num_layers - 1))
        for i in range(num_layers)
    ])
    comm = CommSpec(flows=[TrafficFlow("C0", "C1", 100, 10)])
    graph = build_comm_graph(cores, comm)
    config = SynthesisConfig(max_ill=max_ill, **cfg_kwargs)
    library = default_library()
    topo = Topology(frequency_mhz=config.frequency_mhz,
                    width_bits=config.link_width_bits)
    for layer in range(num_layers):
        sw = topo.add_switch(layer)
        sw.x, sw.y = float(layer), 0.0
    model = _make_cost_model(topo, graph, library, config)
    return topo, graph, library, config, model


class TestHardConstraints:
    def test_layer_skip_is_inf(self):
        topo, _, lib, cfg, model = _setup(num_layers=3)
        cost, _ = _edge_cost(topo, lib, cfg, model, 0, 2, 100, 25)
        assert cost == INF

    def test_ill_exhaustion_is_inf(self):
        topo, _, lib, cfg, model = _setup(num_layers=2, max_ill=2)
        topo.add_switch_link(0, 1)
        topo.add_switch_link(0, 1)
        # Saturate the existing links so only a NEW link could serve the
        # flow — and the ill budget is already exhausted.
        for link in topo.links:
            link.load_mbps = topo.capacity_mbps
        cost, _ = _edge_cost(topo, lib, cfg, model, 0, 1, 100, 25)
        assert cost == INF

    def test_existing_link_with_capacity_ignores_ill(self):
        # Reusing a link consumes no new TSVs, so a full ill budget is fine.
        topo, _, lib, cfg, model = _setup(num_layers=2, max_ill=1)
        topo.add_switch_link(0, 1)
        cost, new = _edge_cost(topo, lib, cfg, model, 0, 1, 100, 25)
        assert cost < INF
        assert not new

    def test_port_exhaustion_is_inf(self):
        topo, _, lib, cfg, model = _setup(num_layers=2)
        sw = topo.switches[0]
        sw.out_ports = model.max_switch_size
        cost, _ = _edge_cost(topo, lib, cfg, model, 0, 1, 100, 25)
        assert cost == INF

    def test_destination_port_exhaustion_is_inf(self):
        topo, _, lib, cfg, model = _setup(num_layers=2)
        topo.switches[1].in_ports = model.max_switch_size
        cost, _ = _edge_cost(topo, lib, cfg, model, 0, 1, 100, 25)
        assert cost == INF


class TestSoftThresholds:
    def test_soft_ill_adds_penalty(self):
        topo, _, lib, cfg, model = _setup(num_layers=2, max_ill=10)
        base, _ = _edge_cost(topo, lib, cfg, model, 0, 1, 100, 25)
        # Load the boundary to the soft threshold (max_ill - 2 = 8).
        for _ in range(model.soft_max_ill):
            topo.add_switch_link(0, 1)
        # Saturate those links so a new one is needed.
        for link in topo.links:
            link.load_mbps = topo.capacity_mbps
        soft, _ = _edge_cost(topo, lib, cfg, model, 0, 1, 100, 25)
        assert soft > base + model.soft_inf * 0.9

    def test_soft_penalty_disabled(self):
        topo, _, lib, cfg, model = _setup(
            num_layers=2, max_ill=10, use_soft_thresholds=False
        )
        for _ in range(model.soft_max_ill):
            topo.add_switch_link(0, 1)
        for link in topo.links:
            link.load_mbps = topo.capacity_mbps
        cost, _ = _edge_cost(topo, lib, cfg, model, 0, 1, 100, 25)
        assert cost < model.soft_inf

    def test_soft_switch_size_penalty(self):
        topo, _, lib, cfg, model = _setup(num_layers=2)
        topo.switches[0].out_ports = model.soft_switch_size
        cost, _ = _edge_cost(topo, lib, cfg, model, 0, 1, 100, 25)
        assert cost > model.soft_inf * 0.9

    def test_soft_inf_dominates_any_real_path_cost(self):
        """SOFT_INF is 'ten times the maximum cost of any flow': a single
        soft penalty must outweigh any realistic multi-hop detour."""
        topo, graph, lib, cfg, model = _setup(num_layers=2)
        worst_hop, _ = _edge_cost(topo, lib, cfg, model, 0, 1,
                                  graph.max_bandwidth,
                                  graph.max_bandwidth / 4.0)
        assert model.soft_inf > 5 * worst_hop


class TestCostStructure:
    def test_longer_distance_costs_more(self):
        topo, _, lib, cfg, model = _setup(num_layers=2)
        near, _ = _edge_cost(topo, lib, cfg, model, 0, 1, 100, 25)
        topo.switches[1].x = 10.0
        far, _ = _edge_cost(topo, lib, cfg, model, 0, 1, 100, 25)
        assert far > near

    def test_reuse_cheaper_than_new(self):
        topo, _, lib, cfg, model = _setup(num_layers=2)
        new_cost, new = _edge_cost(topo, lib, cfg, model, 0, 1, 100, 25)
        assert new
        topo.add_switch_link(0, 1)
        reuse_cost, new2 = _edge_cost(topo, lib, cfg, model, 0, 1, 100, 25)
        assert not new2
        assert reuse_cost < new_cost

    def test_higher_rate_costs_more(self):
        topo, _, lib, cfg, model = _setup(num_layers=2)
        low, _ = _edge_cost(topo, lib, cfg, model, 0, 1, 100, 25)
        high, _ = _edge_cost(topo, lib, cfg, model, 0, 1, 400, 100)
        assert high > low
