"""Every door refuses or accepts a knob value together.

A synthesis value (frequency, α, link width, switch-count range) is judged
by :class:`~repro.core.config.SynthesisConfig`; a traffic value (seeds,
injection scales, cycles/warmup, packet length, batch) by
:func:`~repro.engine.tasks.sim_param_issues`. Hypothesis throws valid and
junk values (NaN, infinities, bools, strings, lists) at each owner and at
the doors that ask it — ``ParameterGrid(...).points()`` and
``validate_campaign`` — and checks they agree, and that a campaign blames
the value's own JSON path.

The example budget comes from the active Hypothesis profile: the default
one under ``make test``, the large ``fuzz`` profile under ``make fuzz``.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaign.spec import (
    CampaignSpec, compile_campaign, validate_campaign,
)
from repro.core.config import SynthesisConfig
from repro.engine.grid import DIMENSIONS, ParameterGrid
from repro.engine.store import fingerprint_task
from repro.engine.tasks import check_sim_params
from repro.errors import EngineError, SpecError, SynthesisError

NUMBERS = st.one_of(
    st.integers(-3, 100), st.floats(-2.0, 1e4),
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, 1, 1.0]),
)
JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.lists(st.integers(-1, 12), max_size=3),
    st.dictionaries(st.text(max_size=1), st.integers(), max_size=1),
)
VALUES = st.one_of(NUMBERS, JUNK)
SETTINGS = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _config_accepts(name, value) -> bool:
    try:
        SynthesisConfig().with_(**{name: value})
    except SpecError:
        return False
    return True


def _grid_accepts(dim, value) -> bool:
    try:
        ParameterGrid(**{dim: (value,)}).points()
    except SynthesisError:
        return False
    return True


@SETTINGS
@given(dim=st.sampled_from(sorted(DIMENSIONS)), value=VALUES)
def test_synthesis_value_doors_agree(dim, value):
    accepted = _config_accepts(DIMENSIONS[dim], value)
    assert _grid_accepts(dim, value) == accepted
    issues = validate_campaign({"name": "a", "grid": {dim: [value]}})
    assert [i.path for i in issues] == ([] if accepted else [f"grid.{dim}[0]"])


SIM_DEFAULTS = {
    key: getattr(CampaignSpec, key)
    for key in ("seeds", "injection_scales", "cycles", "warmup",
                "packet_length_flits", "batch")
}
LIST_KEYS = ("seeds", "injection_scales")


@st.composite
def traffic_values(draw):
    key = draw(st.sampled_from(sorted(SIM_DEFAULTS)))
    if key in LIST_KEYS:
        value = draw(st.lists(VALUES, max_size=3))
    else:
        value = draw(st.one_of(VALUES, st.integers(-2, 5000)))
    return key, value


@SETTINGS
@given(knob=traffic_values())
def test_traffic_value_doors_agree(knob):
    key, value = knob
    try:
        check_sim_params(**{**SIM_DEFAULTS, key: value})
        accepted = True
    except EngineError:
        accepted = False
    if value is None:  # a null campaign key keeps its default
        accepted = True
    paths = [
        i.path for i in validate_campaign({"name": "a", "kind": "sim",
                                           key: value})
    ]
    assert (paths == []) == accepted, paths
    # The cycles > warmup limit is filed under ``warmup``.
    own = ("cycles", "warmup") if key in ("cycles", "warmup") else (key,)
    assert all(path.split("[")[0] in own for path in paths), paths


@pytest.mark.parametrize("dim, spellings", [
    ("frequencies_mhz", ([400], [400.0])),
    ("alphas", ([1], [1.0])),
])
def test_int_and_float_grid_values_share_an_address(dim, spellings):
    fingerprints = [
        [
            fingerprint_task(task) for task in compile_campaign(
                CampaignSpec.from_dict({"name": "a", "grid": {dim: values}})
            )
        ]
        for values in spellings
    ]
    assert fingerprints[0] == fingerprints[1]
