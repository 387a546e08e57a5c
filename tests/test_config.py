"""Synthesis configuration validation (repro.core.config), and the paper
values that are module constants instead of configuration fields."""

import numpy as np
import pytest

from repro.core.config import SynthesisConfig
from repro.core.phase1 import THETA_MAX, THETA_VALUES
from repro.core.pipeline import GRID_STEP_MM, SEARCH_RADIUS_MM
from repro.errors import FloorplanError, SpecError
from repro.floorplan.inserter import (
    MAX_SEARCH_STEPS,
    NewComponent,
    insert_components,
)


class TestValidation:
    def test_defaults_valid(self):
        cfg = SynthesisConfig()
        assert cfg.frequency_mhz == 400.0
        assert cfg.max_ill == 25

    @pytest.mark.parametrize("kwargs", [
        {"frequency_mhz": 0.0},
        {"frequency_mhz": -400.0},
        {"link_width_bits": 0},
        {"link_width_bits": -32},
        {"alpha": 1.5},
        {"alpha": -0.1},
        {"objective": "area"},
        {"objective": None},
        {"max_ill": -1},
        {"max_ill": None},
        {"phase": "phase3"},
        {"phase": 1},
        {"switch_layer_mode": "median"},
        {"switch_layer_mode": None},
        {"flow_order": "random"},
        {"flow_order": None},
        {"switch_count_range": (0, 5)},
        {"switch_count_range": (5, 3)},
        {"floorplanner": "parquet"},
        {"floorplanner": None},
        # Non-finite and non-integer values used to pass and fail late (a
        # whole synthesis with no valid point, or a bare TypeError/ValueError
        # inside a worker) or never.
        {"frequency_mhz": float("nan")},
        {"frequency_mhz": float("inf")},
        {"frequency_mhz": "400"},
        {"alpha": float("nan")},
        {"alpha": float("inf")},
        {"alpha": "0.5"},
        {"seed": "s"},
        {"seed": 1.0},
        {"seed": True},
        {"seed": None},
        {"link_width_bits": 1.5},
        {"max_ill": 2.5},
        {"max_ill": True},
        {"switch_count_range": (3.5, 4)},
        {"switch_count_range": (True, 3)},
        {"switch_count_range": (3,)},
        {"switch_count_range": (1, 2, 3)},
        {"switch_count_range": "3:4"},
        {"use_soft_thresholds": "no"},
        {"use_soft_thresholds": 1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(SpecError):
            SynthesisConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"search_radius": 1.0, "grid_step": 1e-6},
        {"search_radius": 1e300, "grid_step": 1e-300},
        {"search_radius": 20.5, "grid_step": 0.1},
    ])
    def test_search_grid_bounded(self, kwargs):
        # The inserter's search grid is a floorplan constant, not a config
        # field; a direct caller asking for more than MAX_SEARCH_STEPS grid
        # steps per side is refused before any grid exists.
        new = [NewComponent("sw0", "switch", 1.0, 1.0, (0.0, 0.0))]
        with pytest.raises(FloorplanError, match="grid steps per side"):
            insert_components([], new, layer=0, **kwargs)

    def test_largest_search_grid_accepted(self):
        assert SEARCH_RADIUS_MM / GRID_STEP_MM <= MAX_SEARCH_STEPS
        new = [NewComponent("sw0", "switch", 1.0, 1.0, (0.0, 0.0))]
        placed = insert_components([], new, layer=0,
                                   search_radius=MAX_SEARCH_STEPS * 0.5,
                                   grid_step=0.5)
        assert [c.name for c in placed] == ["sw0"]

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
        # Sec. V-A: θ from 1 to 15 in steps of 3.
        assert THETA_VALUES == (1.0, 4.0, 7.0, 10.0, 13.0)

    def test_theta_values_inclusive_endpoint(self):
        # The sweep runs up to THETA_MAX: every step that stays within it.
        assert THETA_VALUES[-1] <= THETA_MAX < THETA_VALUES[-1] + 3.0

    def test_hashable_for_caching(self):
        a = SynthesisConfig(switch_count_range=(3, 12))
        b = SynthesisConfig(switch_count_range=(3, 12))
        assert hash(a) == hash(b)
        assert a == b
