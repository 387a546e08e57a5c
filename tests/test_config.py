"""Synthesis configuration validation (repro.core.config)."""

import numpy as np
import pytest

from repro.core.config import SynthesisConfig
from repro.errors import SpecError


class TestValidation:
    def test_defaults_valid(self):
        cfg = SynthesisConfig()
        assert cfg.frequency_mhz == 400.0
        assert cfg.max_ill == 25

    @pytest.mark.parametrize("kwargs", [
        {"frequency_mhz": 0.0},
        {"link_width_bits": 0},
        {"alpha": 1.5},
        {"alpha": -0.1},
        {"objective": "area"},
        {"max_ill": -1},
        {"phase": "phase3"},
        {"switch_layer_mode": "median"},
        {"theta_min": 0.0},
        {"theta_step": 0.0},
        {"theta_min": 10.0, "theta_max": 5.0},
        {"utilisation_cap": 0.0},
        {"utilisation_cap": 1.5},
        {"switch_count_range": (0, 5)},
        {"switch_count_range": (5, 3)},
        {"floorplanner": "parquet"},
        # The custom inserter's search knobs: a zero or NaN step used to
        # crash synthesis, a negative one ran silently.
        {"grid_step_mm": 0.0},
        {"grid_step_mm": -0.1},
        {"grid_step_mm": float("nan")},
        {"grid_step_mm": float("inf")},
        {"search_radius_mm": 0.0},
        {"search_radius_mm": -1.0},
        {"search_radius_mm": float("nan")},
        {"search_radius_mm": float("inf")},
        # Non-finite and non-integer values used to pass and fail late (a
        # whole synthesis with no valid point, or a bare TypeError/ValueError
        # inside a worker) or never.
        {"frequency_mhz": float("nan")},
        {"frequency_mhz": float("inf")},
        {"frequency_mhz": "400"},
        {"soft_inf_factor": float("inf")},
        {"theta_max": float("inf")},
        {"seed": "s"},
        {"seed": 1.0},
        {"seed": True},
        {"link_width_bits": 1.5},
        {"max_ill": 2.5},
        {"deadlock_retries": None},
        {"switch_count_range": (3.5, 4)},
        {"switch_count_range": (True, 3)},
        {"switch_count_range": (3,)},
        {"switch_count_range": "3:4"},
        {"use_soft_thresholds": "no"},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(SpecError):
            SynthesisConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"grid_step_mm": 1e-6},
        {"search_radius_mm": 1e300, "grid_step_mm": 1e-300},
        {"search_radius_mm": 20.5, "grid_step_mm": 0.1},
    ])
    def test_search_grid_bounded(self, kwargs):
        # The inserter would build (2 * steps + 1) ** 2 offsets: refused
        # here, naming both fields, before any grid exists.
        with pytest.raises(SpecError, match="search_radius_mm / grid_step_mm"):
            SynthesisConfig(**kwargs)

    def test_largest_search_grid_accepted(self):
        from repro.floorplan.inserter import MAX_SEARCH_STEPS

        cfg = SynthesisConfig(search_radius_mm=MAX_SEARCH_STEPS * 0.5,
                              grid_step_mm=0.5)
        assert cfg.search_radius_mm / cfg.grid_step_mm == MAX_SEARCH_STEPS

    def test_integral_and_real_values_kept_as_given(self):
        cfg = SynthesisConfig(
            frequency_mhz=np.float64(400.0), seed=np.int64(3),
            link_width_bits=64, switch_count_range=(np.int64(2), 4),
            alpha=1,
        )
        assert (cfg.seed, cfg.alpha, cfg.switch_count_range[0]) == (3, 1, 2)


class TestHelpers:
    def test_with_creates_modified_copy(self):
        cfg = SynthesisConfig()
        other = cfg.with_(max_ill=10)
        assert other.max_ill == 10
        assert cfg.max_ill == 25

    def test_theta_values_sweep(self):
        cfg = SynthesisConfig(theta_min=1.0, theta_max=15.0, theta_step=3.0)
        assert list(cfg.theta_values()) == [1.0, 4.0, 7.0, 10.0, 13.0]

    def test_theta_values_inclusive_endpoint(self):
        cfg = SynthesisConfig(theta_min=1.0, theta_max=7.0, theta_step=3.0)
        assert list(cfg.theta_values()) == [1.0, 4.0, 7.0]

    def test_hashable_for_caching(self):
        a = SynthesisConfig(switch_count_range=(3, 12))
        b = SynthesisConfig(switch_count_range=(3, 12))
        assert hash(a) == hash(b)
        assert a == b
