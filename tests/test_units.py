"""Unit conversions (repro.units)."""

import pytest

from repro import units


class TestLinkCapacity:
    def test_32bit_400mhz_is_1600_mbps(self):
        assert units.link_capacity_mbps(32, 400.0) == pytest.approx(1600.0)

    def test_scales_linearly_with_width(self):
        assert units.link_capacity_mbps(64, 400.0) == pytest.approx(
            2 * units.link_capacity_mbps(32, 400.0)
        )

    def test_scales_linearly_with_frequency(self):
        assert units.link_capacity_mbps(32, 800.0) == pytest.approx(
            2 * units.link_capacity_mbps(32, 400.0)
        )

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            units.link_capacity_mbps(0, 400.0)


class TestFlitsPerSecond:
    def test_full_capacity_is_frequency(self):
        # A fully loaded 32-bit 400 MHz link moves one flit per cycle.
        cap = units.link_capacity_mbps(32, 400.0)
        assert units.flits_per_second(cap, 32) == pytest.approx(400.0)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            units.flits_per_second(100.0, -1)


class TestEnergyPower:
    def test_mega_ops_energy_to_mw(self):
        # 1000 Mops/s at 1 pJ each = 1 mW.
        assert units.mega_ops_energy_to_mw(1000.0, 1.0) == pytest.approx(1.0)
