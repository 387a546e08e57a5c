"""Frequency sweep (repro.core.frequency_sweep, Fig. 3 outer loop)."""

import pytest

from repro.core.config import SynthesisConfig
from repro.core.frequency_sweep import FrequencySweepResult, sweep_frequencies
from repro.engine import ParameterGrid, build_tasks, run_tasks
from repro.errors import SynthesisError
from repro.noc.export import design_point_to_dict


@pytest.fixture
def specs(tiny_specs):
    return tiny_specs


def sweep_link_widths(core_spec, comm_spec, widths, config=None):
    """A link-width sweep on the engine's grid path, keyed by width."""
    tasks = build_tasks(
        core_spec, comm_spec, ParameterGrid(link_widths_bits=widths), config
    )
    return {r.key.link_width_bits: r.result for r in run_tasks(tasks)}


class TestSweep:
    def test_sweep_collects_per_frequency(self, specs):
        core_spec, comm_spec = specs
        cfg = SynthesisConfig(max_ill=10, switch_count_range=(2, 3))
        sweep = sweep_frequencies(core_spec, comm_spec, (200.0, 400.0), config=cfg)
        assert sweep.frequencies == [200.0, 400.0]
        assert sweep.per_frequency[400.0].points
        assert sweep.all_points()

    def test_infeasible_frequency_skipped(self, specs):
        core_spec, comm_spec = specs
        # At 50 MHz capacity is 200 MB/s; the 400 MB/s flow cannot fit.
        cfg = SynthesisConfig(max_ill=10, switch_count_range=(2, 3))
        sweep = sweep_frequencies(core_spec, comm_spec, (50.0, 400.0), config=cfg)
        assert not sweep.per_frequency[50.0].points
        assert sweep.per_frequency[400.0].points

    def test_lowest_frequency_has_best_power(self, specs):
        """The paper's observation: best power at the lowest feasible
        frequency (clock power dominates at fixed load)."""
        core_spec, comm_spec = specs
        cfg = SynthesisConfig(max_ill=10, switch_count_range=(2, 3))
        sweep = sweep_frequencies(
            core_spec, comm_spec, (200.0, 400.0, 700.0), config=cfg
        )
        per_freq = sweep.best_power_per_frequency()
        powers = {f: p.total_power_mw for f, p in per_freq.items() if p}
        assert powers[200.0] < powers[700.0]
        best = sweep.best_power()
        assert best.config.frequency_mhz == 200.0

    def test_bad_frequency_rejected(self, specs):
        core_spec, comm_spec = specs
        with pytest.raises(SynthesisError):
            sweep_frequencies(core_spec, comm_spec, (0.0,))

    def test_all_frequencies_validated_up_front(self, specs):
        """A bad value midway through the list must abort before any point
        is synthesized (no work silently discarded)."""
        core_spec, comm_spec = specs
        calls = []
        with pytest.raises(SynthesisError):
            sweep_frequencies(
                core_spec, comm_spec, (400.0, -5.0, 200.0),
                config=SynthesisConfig(max_ill=10, switch_count_range=(2, 3)),
                progress=lambda done, total, key: calls.append(key),
            )
        assert calls == []  # nothing ran

    def test_best_power_tie_breaks_on_frequency(self, specs):
        """Two frequencies yielding identical (power, switch count) points:
        best_power() must pick the lower frequency deterministically, not
        whichever dict insertion order all_points() happened to produce."""
        import dataclasses

        from repro.core.design_point import SynthesisResult

        core_spec, comm_spec = specs
        cfg = SynthesisConfig(max_ill=10, switch_count_range=(2, 3))
        base = sweep_frequencies(
            core_spec, comm_spec, (200.0,), config=cfg
        ).per_frequency[200.0]
        assert base.points
        # Forge a 400 MHz twin of every 200 MHz point: identical metrics
        # (power tie) but a different config frequency.
        twin = SynthesisResult(points=[
            dataclasses.replace(
                p, config=p.config.with_(frequency_mhz=400.0)
            )
            for p in base.points
        ])
        for order in ((200.0, base, 400.0, twin), (400.0, twin, 200.0, base)):
            sweep = FrequencySweepResult()
            sweep.per_frequency[order[0]] = order[1]
            sweep.per_frequency[order[2]] = order[3]
            assert sweep.best_power().config.frequency_mhz == 200.0

    def test_parallel_sweep_identical_to_serial(self, specs):
        core_spec, comm_spec = specs
        cfg = SynthesisConfig(max_ill=10, switch_count_range=(2, 3))
        freqs = (200.0, 400.0, 700.0)
        serial = sweep_frequencies(core_spec, comm_spec, freqs, config=cfg, jobs=1)
        parallel = sweep_frequencies(core_spec, comm_spec, freqs, config=cfg, jobs=2)
        assert serial.frequencies == parallel.frequencies
        for freq in serial.frequencies:
            s_points = serial.per_frequency[freq].points
            p_points = parallel.per_frequency[freq].points
            assert [design_point_to_dict(p) for p in s_points] == [
                design_point_to_dict(p) for p in p_points
            ]

    def test_empty_sweep_best_raises(self, specs):
        core_spec, comm_spec = specs
        cfg = SynthesisConfig(max_ill=10, switch_count_range=(2, 3))
        sweep = sweep_frequencies(core_spec, comm_spec, (10.0,), config=cfg)
        with pytest.raises(SynthesisError):
            sweep.best_power()


class TestWidthSweep:
    """Link width (Sec. IV) swept as ``ParameterGrid(link_widths_bits=...)``."""

    def test_results_per_width(self, specs):
        core_spec, comm_spec = specs
        cfg = SynthesisConfig(max_ill=10, switch_count_range=(2, 3))
        results = sweep_link_widths(core_spec, comm_spec, (16, 32, 64), config=cfg)
        assert set(results) == {16, 32, 64}
        for width, result in results.items():
            for p in result.points:
                assert p.config.link_width_bits == width

    def test_too_narrow_width_infeasible(self, specs):
        core_spec, comm_spec = specs
        # 2-bit links at 400 MHz: 100 MB/s capacity < the 400 MB/s flow.
        cfg = SynthesisConfig(max_ill=10, switch_count_range=(2, 3))
        results = sweep_link_widths(core_spec, comm_spec, (2,), config=cfg)
        assert not results[2].points

    def test_wire_energy_width_invariant(self, specs):
        """Moving the same bytes over wider links toggles the same wire
        capacitance: dynamic link power is (to first order) width-invariant,
        so 16- and 64-bit designs land in the same power ballpark."""
        core_spec, comm_spec = specs
        cfg = SynthesisConfig(max_ill=10, switch_count_range=(2, 2))
        results = sweep_link_widths(core_spec, comm_spec, (16, 64), config=cfg)
        if results[16].points and results[64].points:
            p16 = results[16].best_power()
            p64 = results[64].best_power()
            ratio = p64.metrics.link_power_mw / p16.metrics.link_power_mw
            assert 0.5 < ratio < 2.0

    def test_invalid_width_rejected(self, specs):
        core_spec, comm_spec = specs
        with pytest.raises(SynthesisError):
            sweep_link_widths(core_spec, comm_spec, (0,))
