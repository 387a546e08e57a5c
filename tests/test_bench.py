"""Benchmark generators (repro.bench)."""

import pytest

from repro.bench.builder import build_benchmark
from repro.bench.layer_assignment import assign_layers
from repro.bench.registry import TABLE1_BENCHMARKS, get_benchmark, list_benchmarks
from repro.errors import SpecError
from repro.graphs.comm_graph import build_comm_graph
from repro.spec.comm_spec import CommSpec, TrafficFlow
from repro.spec.core_spec import Core, CoreSpec
from repro.spec.validate import validate_specs


def _graph(n=8, flows=None):
    cores = CoreSpec(cores=[Core(f"C{i}", 1, 1, 1.5 * i, 0, 0) for i in range(n)])
    flows = flows or [
        TrafficFlow(f"C{i}", f"C{(i + 1) % n}", 100 * (i + 1), 8) for i in range(n)
    ]
    return build_comm_graph(cores, CommSpec(flows=flows))


class TestLayerAssignment:
    def test_single_layer(self):
        g = _graph()
        assert assign_layers(g, 1) == [0] * 8

    def test_min_cut_balanced(self):
        g = _graph()
        layers = assign_layers(g, 2, strategy="min_cut")
        assert sorted(set(layers)) == [0, 1]
        counts = [layers.count(l) for l in (0, 1)]
        assert abs(counts[0] - counts[1]) <= 1

    def test_stack_strategy_covers_all_layers(self):
        g = _graph(n=9)
        layers = assign_layers(g, 3, strategy="stack")
        assert sorted(set(layers)) == [0, 1, 2]
        assert len(layers) == 9

    def test_stack_area_aware_balances_area(self):
        g = _graph(n=8)
        areas = [4.0, 1.0, 1.0, 1.0, 4.0, 1.0, 1.0, 1.0]
        layers = assign_layers(g, 2, strategy="stack", areas=areas)
        per_layer = [
            sum(a for a, l in zip(areas, layers) if l == ll) for ll in (0, 1)
        ]
        assert abs(per_layer[0] - per_layer[1]) <= 3.0

    def test_stack_pairs_heavy_partners_across_layers(self):
        cores = CoreSpec(cores=[Core(f"C{i}", 1, 1, 1.5 * i, 0, 0) for i in range(4)])
        comm = CommSpec(flows=[
            TrafficFlow("C0", "C1", 1000, 8),
            TrafficFlow("C2", "C3", 900, 8),
        ])
        g = build_comm_graph(cores, comm)
        layers = assign_layers(g, 2, strategy="stack")
        assert layers[0] != layers[1]
        assert layers[2] != layers[3]

    def test_bad_args(self):
        g = _graph()
        with pytest.raises(SpecError):
            assign_layers(g, 0)
        with pytest.raises(SpecError):
            assign_layers(g, 100)
        with pytest.raises(SpecError):
            assign_layers(g, 2, strategy="random")
        with pytest.raises(SpecError):
            assign_layers(g, 2, areas=[1.0])


class TestBuilder:
    def test_build_small_benchmark(self):
        cores = [(f"C{i}", 1.0, 1.0) for i in range(6)]
        flows = [
            TrafficFlow(f"C{i}", f"C{(i + 1) % 6}", 100, 10) for i in range(6)
        ]
        bench = build_benchmark(
            "toy", cores, flows, num_layers=2, floorplan_moves=400
        )
        assert bench.num_cores == 6
        assert bench.num_layers == 2
        assert bench.core_spec_3d.num_layers == 2
        assert bench.core_spec_2d.num_layers == 1
        validate_specs(bench.core_spec_3d, bench.comm_spec)
        validate_specs(bench.core_spec_2d, bench.comm_spec)

    def test_deterministic(self):
        cores = [(f"C{i}", 1.0, 1.0) for i in range(5)]
        flows = [TrafficFlow("C0", "C1", 100, 10), TrafficFlow("C2", "C3", 80, 10)]
        a = build_benchmark("t", cores, flows, 2, floorplan_moves=300)
        b = build_benchmark("t", cores, flows, 2, floorplan_moves=300)
        assert [(c.name, c.x, c.y, c.layer) for c in a.core_spec_3d] == [
            (c.name, c.x, c.y, c.layer) for c in b.core_spec_3d
        ]


class TestRegistry:
    def test_list_contains_all_paper_benchmarks(self):
        names = list_benchmarks()
        for expected in TABLE1_BENCHMARKS + ("d26_media",):
            assert expected in names

    def test_unknown_name_rejected(self):
        with pytest.raises(SpecError):
            get_benchmark("bogus")

    def test_d26_media_structure(self):
        bench = get_benchmark("d26_media", floorplan_moves=400)
        assert bench.num_cores == 26
        assert bench.num_layers == 3
        names = set(bench.core_spec_3d.names)
        assert "ARM" in names and "DMA" in names and "MEM7" in names

    def test_d36_structure_and_bandwidth_conservation(self):
        b4 = get_benchmark("d36_4", floorplan_moves=400)
        b8 = get_benchmark("d36_8", floorplan_moves=400)
        assert b4.num_cores == b8.num_cores == 36
        assert b4.num_flows == 72 and b8.num_flows == 144
        # "The total bandwidth is the same in the three benchmarks."
        assert b4.comm_spec.total_bandwidth == pytest.approx(
            b8.comm_spec.total_bandwidth
        )

    def test_d35_bot_structure(self):
        bench = get_benchmark("d35_bot", floorplan_moves=400)
        assert bench.num_cores == 35
        shared_flows = [f for f in bench.comm_spec if f.dst.startswith("S")]
        assert len(shared_flows) == 48  # 16 procs x 3 shared memories

    def test_pipelines(self):
        b65 = get_benchmark("d65_pipe", floorplan_moves=300)
        assert b65.num_cores == 65 and b65.num_flows == 64
        b38 = get_benchmark("d38_tvopd", floorplan_moves=300)
        assert b38.num_cores == 38
        assert b38.num_flows >= 37

    def test_caching(self):
        a = get_benchmark("d36_4", floorplan_moves=400)
        b = get_benchmark("d36_4", floorplan_moves=400)
        assert a is b


class TestVariantsOnRequest:
    """The 3-D build anneals one floorplan per layer; the single-die
    floorplan is annealed only when a 2-D variant is asked for."""

    def test_build_anneals_only_the_3d_layers(self, monkeypatch):
        from repro.bench import floorplans, registry

        calls = []
        real = floorplans.anneal_floorplan

        def counting(*args, **kwargs):
            calls.append(kwargs["seed"])
            return real(*args, **kwargs)

        monkeypatch.setattr(floorplans, "anneal_floorplan", counting)
        monkeypatch.setattr(registry, "_CACHE", {})
        bench = get_benchmark("d26_media", seed=5, floorplan_moves=200)
        assert len(calls) == bench.num_layers == 3
        assert (bench.seed, bench.floorplan_moves) == (5, 200)
        flat = bench.core_spec_2d
        assert bench.core_spec_2d is flat
        assert len(calls) == bench.num_layers + 1
        assert flat.num_layers == 1

    @pytest.mark.slow  # anneals every registry benchmark in both variants
    def test_registry_specs_unchanged(self):
        """Digests of every core's (name, size, position, layer), recorded
        when both variants were still annealed eagerly in one build."""
        import hashlib
        import json

        def digest(core_spec):
            rows = [[c.name, c.width, c.height, c.x, c.y, c.layer]
                    for c in core_spec]
            return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]

        expected = {
            "d26_media": ("aff9b8830ebf1b4c", "849c1e8780c655f5"),
            "d35_bot": ("704686e1fb6ad3cd", "ae81bd3885239861"),
            "d36_4": ("ac0654fc424a5ec2", "fc4b4d64d4c79576"),
            "d36_6": ("37ed173b65ed13d4", "e0d840623b976f86"),
            "d36_8": ("7ac8ac3eec584c8d", "5822006ed1d8e067"),
            "d38_tvopd": ("e14c44ecf0060bf4", "5b1545bb076b1a02"),
            "d65_pipe": ("451a7dc2c3bcdb02", "e0c82ffa675e296e"),
        }
        assert sorted(expected) == list_benchmarks()
        for name, (spec_3d, spec_2d) in expected.items():
            bench = get_benchmark(name)
            assert digest(bench.core_spec_3d) == spec_3d, name
            assert digest(bench.core_spec_2d) == spec_2d, name
