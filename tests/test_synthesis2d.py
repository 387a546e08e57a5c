"""The 2-D synthesis flow (the [16] baseline): ``Benchmark.variant("2d")``."""

import pytest

from repro.bench.builder import build_benchmark
from repro.core.config import SynthesisConfig
from repro.core.synthesis import synthesize
from repro.errors import SpecError
from repro.spec.comm_spec import TrafficFlow


@pytest.fixture(scope="module")
def bench():
    """8 unit cores on 2 layers; the 2-D variant re-floorplans them on one
    die."""
    flows = [
        ("C0", "C1", 400, 8), ("C1", "C2", 300, 8), ("C2", "C3", 200, 8),
        ("C4", "C5", 350, 8), ("C5", "C6", 250, 8), ("C6", "C7", 150, 8),
        ("C7", "C0", 100, 12), ("C3", "C4", 120, 12),
    ]
    return build_benchmark(
        "toy", [(f"C{i}", 1.0, 1.0) for i in range(8)],
        [TrafficFlow(*flow) for flow in flows], num_layers=2,
        floorplan_moves=300,
    )


def _synthesize_2d(bench, config):
    core_spec, config = bench.variant("2d", config)
    return synthesize(core_spec, bench.comm_spec, config=config)


class TestSynthesize2d:
    def test_runs_on_single_layer(self, bench):
        result = _synthesize_2d(bench, SynthesisConfig())
        assert not result.is_empty
        best = result.best_power()
        assert best.floorplan.num_layers == 1

    def test_no_vertical_links_ever(self, bench):
        result = _synthesize_2d(bench, SynthesisConfig())
        for p in result.points:
            assert p.metrics.num_vertical_links == 0
            assert p.metrics.max_ill_used == 0
            assert p.metrics.tsv_macro_area_mm2 == 0.0

    def test_phase_forced_to_phase1(self, bench):
        core_spec, config = bench.variant(
            "2d", SynthesisConfig(phase="phase2")
        )
        assert core_spec is bench.core_spec_2d
        assert core_spec.num_layers == 1
        assert config.phase == "phase1"
        result = _synthesize_2d(bench, SynthesisConfig(phase="phase2"))
        assert all(p.phase == "phase1" for p in result.points)

    def test_config_passthrough(self, bench):
        cfg = SynthesisConfig(switch_count_range=(2, 3))
        result = _synthesize_2d(bench, cfg)
        assert result.points
        assert all(2 <= p.assignment.num_switches <= 3 for p in result.points)


class TestVariant3d:
    def test_unchanged(self, bench):
        config = SynthesisConfig(phase="phase2")
        core_spec, same = bench.variant("3d", config)
        assert core_spec is bench.core_spec_3d
        assert same is config

    @pytest.mark.parametrize("dims", ["4d", "3D", "", None])
    def test_unknown_dims_rejected(self, bench, dims):
        with pytest.raises(SpecError, match="dims"):
            bench.variant(dims, SynthesisConfig())
