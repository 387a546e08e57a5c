"""Fuzzing the spec file readers: a spec or a ``SpecError``, nothing else.

Hypothesis writes core and communication spec files in both formats
(:mod:`repro.spec.io`): near-valid text lines and JSON entries with some
fields replaced by junk (NaN, infinities, huge integers, bools, strings,
lists, nulls), plus arbitrary text. Every file must either load into a
spec whose numbers are finite and whose layers are integers, or raise
:class:`~repro.errors.SpecError` naming the file.

The example budget comes from the active Hypothesis profile: the default
one under ``make test``, the large ``fuzz`` profile (``tests/conftest.py``)
under ``make fuzz``.
"""

import json
import math
import numbers

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import SpecError
from repro.spec.comm_spec import CommSpec
from repro.spec.core_spec import CoreSpec
from repro.spec.io import (
    load_comm_spec_json,
    load_comm_spec_text,
    load_core_spec_json,
    load_core_spec_text,
)

NAMES = st.sampled_from(["A", "B", "C", "MEM0", ""]) | st.text(
    "ABC_#x", min_size=1, max_size=3
)
SPECIALS = st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, 1e308])
JUNK = st.one_of(
    SPECIALS, st.integers(-2, 40), st.floats(-5.0, 50.0),
    st.none(), st.booleans(), st.text(max_size=4),
    st.lists(st.integers(-1, 4), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
TYPES = st.sampled_from(["request", "response", "REQUEST", "ack"])
CORE_FIELDS = ("name", "width", "height", "x", "y", "layer")
FLOW_FIELDS = ("src", "dst", "bandwidth", "latency", "message_type")


def _token(value) -> str:
    return value if isinstance(value, str) else repr(value)


@st.composite
def core_entry(draw):
    entry = {
        "name": draw(NAMES), "width": draw(st.floats(0.1, 5.0)),
        "height": draw(st.floats(0.1, 5.0)), "x": draw(st.floats(0.0, 9.0)),
        "y": draw(st.floats(0.0, 9.0)), "layer": draw(st.integers(0, 3)),
    }
    for key in draw(st.lists(st.sampled_from(CORE_FIELDS), min_size=1, max_size=2)):
        if draw(st.integers(0, 3)):
            entry[key] = draw(JUNK)
        else:
            entry.pop(key, None)
    return entry


@st.composite
def flow_entry(draw):
    entry = {
        "src": draw(NAMES), "dst": draw(NAMES),
        "bandwidth": draw(st.floats(1.0, 900.0)),
        "latency": draw(st.floats(1.0, 20.0)), "message_type": draw(TYPES),
    }
    for key in draw(st.lists(st.sampled_from(FLOW_FIELDS), min_size=1, max_size=2)):
        if draw(st.integers(0, 3)):
            entry[key] = draw(JUNK)
        else:
            entry.pop(key, None)
    return entry


@st.composite
def _json_file(draw, entries, key):
    """Mostly a JSON list of entries; else junk where the list belongs,
    a junk document or text that may not be JSON at all."""
    shape = draw(st.integers(0, 5))
    if shape == 0:
        return draw(st.text(max_size=30))
    if shape == 1:
        return json.dumps(draw(JUNK))
    if shape == 2:
        return json.dumps({key: draw(JUNK)})
    return json.dumps({key: draw(st.lists(entries, max_size=4))})


@st.composite
def _text_file(draw, entries, keyword, fields):
    """Mostly lines of entries among comments, blanks and junk lines."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.text(max_size=40))
    lines = []
    for entry in draw(st.lists(entries, max_size=4)):
        lines.append(" ".join(
            [keyword] + [_token(entry[f]) for f in fields if f in entry]
        ))
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(["# a comment", ""])
                              | st.text(max_size=20)))
    return "\n".join(lines)


FILES = {
    "core-json": (load_core_spec_json, _json_file(core_entry(), "cores")),
    "comm-json": (load_comm_spec_json, _json_file(flow_entry(), "flows")),
    "core-text": (load_core_spec_text,
                  _text_file(core_entry(), "core", CORE_FIELDS)),
    "comm-text": (load_comm_spec_text,
                  _text_file(flow_entry(), "flow", FLOW_FIELDS)),
}


def _finite(value) -> bool:
    return (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _assert_well_typed(spec) -> None:
    if isinstance(spec, CoreSpec):
        for core in spec:
            assert all(
                _finite(v) for v in (core.width, core.height, core.x, core.y)
            ), core
            assert isinstance(core.layer, int), core
            assert not isinstance(core.layer, bool) and core.layer >= 0, core
    else:
        assert isinstance(spec, CommSpec)
        for flow in spec:
            assert _finite(flow.bandwidth) and flow.bandwidth > 0, flow
            assert _finite(flow.latency) and flow.latency > 0, flow


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("spec-fuzz")


@pytest.mark.parametrize("kind", sorted(FILES))
def test_loaders_give_a_spec_or_a_spec_error(spec_dir, kind):
    load, contents = FILES[kind]
    path = spec_dir / kind

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(content=contents)
    def check(content):
        path.write_text(content, encoding="utf-8")
        try:
            spec = load(path)
        except SpecError as exc:
            assert str(exc).startswith(f"{path}:"), exc
            return
        _assert_well_typed(spec)

    check()
