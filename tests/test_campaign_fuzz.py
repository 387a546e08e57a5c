"""Fuzzing ``CampaignSpec.from_dict``: refuse with every issue, or build.

Hypothesis generates campaign dicts mixing plausible settings with junk
(NaN, infinities, bools, strings, nested lists, unknown keys). Every dict
must either raise :class:`~repro.errors.CampaignSpecError` or give a spec
whose base configuration and grid points build, whose configuration fields
have their declared types, and which survives a ``to_dict`` round trip.

The example budget comes from the active Hypothesis profile: the default
one under ``make test``, the large ``fuzz`` profile (``tests/conftest.py``)
under ``make fuzz``.
"""

import dataclasses
import math
import operator

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.bench.registry import list_benchmarks
from repro.campaign.spec import GRID_KEYS, CampaignSpec
from repro.core.config import (
    LAYER_MODES, OBJECTIVES, PHASES, SynthesisConfig,
)
from repro.errors import CampaignSpecError

NUMBERS = st.one_of(
    st.integers(-2, 1000), st.floats(-1.0, 1000.0),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
JUNK = st.one_of(
    st.none(), st.booleans(), NUMBERS, st.text(max_size=4),
    st.lists(st.integers(-1, 4), max_size=3), st.lists(NUMBERS, max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
SWITCH_RANGE = st.lists(st.integers(1, 10), min_size=2, max_size=2).map(
    sorted
)
#: A valid value per configuration field.
PLAUSIBLE = {
    "int": st.integers(0, 30),
    "float": st.floats(0.05, 1.0),
    "bool": st.booleans(),
    "phase": st.sampled_from(PHASES),
    "objective": st.sampled_from(OBJECTIVES),
    "switch_layer_mode": st.sampled_from(LAYER_MODES),
    "flow_order": st.sampled_from(["bandwidth_desc", "bandwidth_asc", "spec"]),
    "floorplanner": st.sampled_from(["custom", "constrained"]),
    "switch_count_range": SWITCH_RANGE,
}
CONFIG_FIELDS = dataclasses.fields(SynthesisConfig)
CONFIG = st.fixed_dictionaries({}, optional={
    f.name: PLAUSIBLE.get(f.name, PLAUSIBLE.get(f.type))
    for f in CONFIG_FIELDS
})
GRID = st.fixed_dictionaries({}, optional={
    "frequencies_mhz": st.lists(st.floats(50.0, 1000.0), min_size=1,
                                max_size=3),
    "alphas": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2),
    "link_widths_bits": st.lists(st.sampled_from([16, 32, 64]), min_size=1,
                                 max_size=2),
    "switch_count_ranges": st.lists(SWITCH_RANGE, min_size=1, max_size=2),
})
SIM = st.fixed_dictionaries({}, optional={
    "scenarios": st.lists(st.sampled_from(
        ["bernoulli", "hotspot:3", "bursty", "scaled:1.5"]
    ), min_size=1, max_size=3),
    "seeds": st.lists(st.integers(0, 5), min_size=1, max_size=3),
    "injection_scales": st.lists(st.floats(0.05, 2.0), min_size=1,
                                 max_size=3),
    "cycles": st.integers(200, 5000),
    "warmup": st.integers(0, 199),
    "packet_length_flits": st.integers(1, 8),
    "batch": st.integers(1, 4),
})
#: Where junk may land: a whole top-level value, one config field or one
#: grid dimension, or an unknown key at either level.
TARGETS = (
    ["name", "kind", "benchmark", "dims", "config", "grid", "scenarios",
     "seeds", "injection_scales", "cycles", "warmup",
     "packet_length_flits", "batch", "bogus", "config.bogus", "grid.bogus"]
    + [f"config.{f.name}" for f in CONFIG_FIELDS]
    + [f"grid.{key}" for key in GRID_KEYS]
)


@st.composite
def campaigns(draw):
    """A plausible campaign with up to two values replaced by junk."""
    kind = draw(st.sampled_from(["sweep", "sim"]))
    data = {
        "name": draw(st.text("ab-_.", min_size=1, max_size=6)),
        "kind": kind,
        "benchmark": draw(st.sampled_from(list_benchmarks())),
        "dims": draw(st.sampled_from(["3d", "2d"])),
        "config": draw(CONFIG),
    }
    data.update({"grid": draw(GRID)} if kind == "sweep" else draw(SIM))
    for target in draw(st.lists(st.sampled_from(TARGETS), max_size=2)):
        section, _, key = target.partition(".")
        if not key:
            data[section] = draw(JUNK)
            continue
        if not isinstance(data.get(section), dict):
            data[section] = {}
        data[section][key] = draw(JUNK)
    return data


def _is_int(value) -> bool:
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def _assert_declared_types(config: SynthesisConfig) -> None:
    for spec in dataclasses.fields(config):
        value = getattr(config, spec.name)
        if spec.type == "int":
            assert _is_int(value), (spec.name, value)
        elif spec.type == "float":
            assert isinstance(value, (int, float)), (spec.name, value)
            assert not isinstance(value, bool), (spec.name, value)
            assert math.isfinite(value), (spec.name, value)
        elif spec.type == "bool":
            assert isinstance(value, bool), (spec.name, value)
        elif spec.type == "str":
            assert isinstance(value, str), (spec.name, value)
    pair = config.switch_count_range
    assert pair is None or (
        len(pair) == 2 and all(_is_int(v) for v in pair)
    ), pair


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=campaigns())
# Found by this test: a null grid dimension crashed ``parameter_grid``, and
# a null warmup skipped the warmup < cycles check against the default.
@example(data={"name": "a", "grid": {"frequencies_mhz": None}})
@example(data={"name": "a", "kind": "sim", "cycles": 200, "warmup": None})
def test_from_dict_refuses_or_builds(data):
    try:
        spec = CampaignSpec.from_dict(data)
    except CampaignSpecError as exc:
        assert exc.issues
        return
    config = spec.base_config()
    _assert_declared_types(config)
    for point in spec.parameter_grid().points():
        _assert_declared_types(point.apply(config))
    assert CampaignSpec.from_dict(spec.to_dict()) == spec
