"""Communication graph (repro.graphs.comm_graph)."""

import pytest

from repro.errors import SpecError
from repro.graphs.comm_graph import build_comm_graph
from repro.spec.comm_spec import CommSpec, TrafficFlow
from repro.spec.core_spec import Core, CoreSpec


@pytest.fixture
def graph():
    cores = CoreSpec(cores=[
        Core("A", 1, 1, 0, 0, 0),
        Core("B", 1, 1, 2, 0, 0),
        Core("C", 1, 1, 0, 0, 1),
    ])
    comm = CommSpec(flows=[
        TrafficFlow("A", "B", 100, 8),
        TrafficFlow("B", "C", 300, 4),
        TrafficFlow("C", "A", 200, 6),
    ])
    return build_comm_graph(cores, comm)


class TestBuild:
    def test_vertices_match_core_order(self, graph):
        assert graph.n == 3
        assert graph.names == ["A", "B", "C"]
        assert graph.layers == [0, 0, 1]

    def test_edges(self, graph):
        assert graph.bandwidth(0, 1) == 100
        assert graph.bandwidth(1, 0) == 0.0
        assert graph.latency(1, 2) == 4
        assert graph.latency(2, 1) == float("inf")

    def test_aggregates(self, graph):
        assert graph.max_bandwidth == 300
        assert graph.min_latency == 4
        assert graph.num_layers == 2

    def test_flows_deterministic_order(self, graph):
        keys = [(i, j) for i, j, _ in graph.flows()]
        assert keys == sorted(keys)

    def test_unknown_endpoint_rejected(self):
        cores = CoreSpec(cores=[Core("A", 1, 1)])
        comm = CommSpec(flows=[TrafficFlow("A", "Z", 100, 8)])
        with pytest.raises(SpecError):
            build_comm_graph(cores, comm)

    def test_symmetric_bandwidth(self, graph):
        sym = graph.symmetric_bandwidth()
        assert sym[(0, 1)] == 100
        assert sym[(0, 2)] == 200
        assert sym[(1, 2)] == 300

    def test_index_of(self, graph):
        assert graph.index_of("C") == 2
        with pytest.raises(SpecError):
            graph.index_of("Z")
