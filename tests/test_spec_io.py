"""Spec file round-trips (repro.spec.io)."""

import re

import pytest

from repro.errors import SpecError
from repro.spec.comm_spec import CommSpec, MessageType, TrafficFlow
from repro.spec.core_spec import Core, CoreSpec
from repro.spec.io import (
    load_comm_spec_json,
    load_comm_spec_text,
    load_core_spec_json,
    load_core_spec_text,
    save_comm_spec_json,
    save_comm_spec_text,
    save_core_spec_json,
    save_core_spec_text,
)


@pytest.fixture
def core_spec():
    return CoreSpec(cores=[
        Core("ARM", 1.5, 1.25, 0.0, 0.0, 0),
        Core("MEM0", 2.0, 1.0, 2.0, 0.0, 1),
    ])


@pytest.fixture
def comm_spec():
    return CommSpec(flows=[
        TrafficFlow("ARM", "MEM0", 400.0, 8.0),
        TrafficFlow("MEM0", "ARM", 300.0, 8.0, MessageType.RESPONSE),
    ])


class TestJsonRoundTrip:
    def test_core_spec(self, tmp_path, core_spec):
        path = tmp_path / "cores.json"
        save_core_spec_json(core_spec, path)
        loaded = load_core_spec_json(path)
        assert loaded.names == core_spec.names
        assert loaded[1].layer == 1
        assert loaded[0].width == pytest.approx(1.5)

    def test_comm_spec(self, tmp_path, comm_spec):
        path = tmp_path / "comm.json"
        save_comm_spec_json(comm_spec, path)
        loaded = load_comm_spec_json(path)
        assert len(loaded) == 2
        assert loaded[1].message_type is MessageType.RESPONSE

    def test_missing_key_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"cores": [{"name": "A"}]}')
        with pytest.raises(SpecError):
            load_core_spec_json(path)

    def test_missing_toplevel_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(SpecError):
            load_core_spec_json(path)
        with pytest.raises(SpecError):
            load_comm_spec_json(path)


def _mkdir(path):
    path.mkdir()


@pytest.mark.parametrize("load, content", [
    (load_core_spec_json, None),  # a missing file
    (load_core_spec_json, _mkdir),
    (load_core_spec_json, "{not json"),
    (load_core_spec_json, '{"cores": [1]}'),
    (load_core_spec_json,
     '{"cores": [{"name": "A", "width": "wide", "height": 1.0}]}'),
    (load_comm_spec_json, '{"flows": [{"src": "A", "dst": "B", '
                          '"bandwidth": "lots", "latency": 8}]}'),
    (load_core_spec_text, None),
    (load_comm_spec_text, _mkdir),
], ids=["missing", "directory", "invalid-json", "non-object-entry",
        "non-numeric-width", "non-numeric-bandwidth", "text-missing",
        "text-directory"])
def test_malformed_spec_file_raises_spec_error_naming_path(
    tmp_path, load, content
):
    path = tmp_path / "spec.json"
    if callable(content):
        content(path)
    elif content is not None:
        path.write_text(content)
    with pytest.raises(SpecError, match=re.escape(str(path))):
        load(path)


@pytest.mark.parametrize("load, content, where", [
    (load_comm_spec_text, "flow A B 100 8\nflow A C 100 nan\n", "2:"),
    (load_comm_spec_text, "flow A B inf 8\n", "1:"),
    (load_core_spec_text, "core A 1 1 0 0 0\ncore B 1 1 0 inf 0\n", "2:"),
    (load_core_spec_text, "core A 1 1 nan 0 0\n", "1:"),
    (load_comm_spec_json, '{"flows": [{"src": "A", "dst": "B", '
                          '"bandwidth": NaN, "latency": 8}]}', "flows[0]"),
    (load_comm_spec_json, '{"flows": [{"src": "A", "dst": "B", '
                          '"bandwidth": 1, "latency": Infinity}]}', "flows[0]"),
    (load_core_spec_json, '{"cores": [{"name": "A", "width": Infinity, '
                          '"height": 1.0}]}', "cores[0]"),
    (load_core_spec_json, '{"cores": [{"name": "A", "width": 1.0, '
                          '"height": 1.0}, {"name": "B", "width": 1.0, '
                          '"height": 1.0, "layer": true}]}', "cores[1]"),
    (load_core_spec_json, '{"cores": [{"name": "A", "width": 1.0, '
                          '"height": 1.0, "layer": 1.5}]}', "cores[0]"),
    (load_core_spec_json, '{"cores": [{"name": "A", "width": 1e400, '
                          '"height": 1.0}]}', "cores[0]"),
    (load_core_spec_json, '{"cores": [{"name": "A", "width": 1%s, '
                          '"height": 1.0}]}' % ("0" * 400), "cores[0]"),
    (load_core_spec_json, "[" * 100000, ""),
], ids=["text-nan-latency", "text-inf-bandwidth", "text-inf-y",
        "text-nan-x", "json-nan-bandwidth", "json-inf-latency",
        "json-inf-width", "json-bool-layer", "json-float-layer",
        "json-overflowing-float", "json-huge-int", "json-deep-nesting"])
def test_non_finite_or_mistyped_values_raise_spec_error_naming_the_entry(
    tmp_path, load, content, where
):
    path = tmp_path / "spec"
    path.write_text(content)
    with pytest.raises(SpecError, match=re.escape(f"{path}:") + ".*"
                       + re.escape(where)):
        load(path)


def test_json_layer_may_be_a_string_holding_an_integer(tmp_path):
    path = tmp_path / "cores.json"
    path.write_text('{"cores": [{"name": "A", "width": 1, "height": 1, '
                    '"layer": "2"}]}')
    assert load_core_spec_json(path)[0].layer == 2


class TestTextRoundTrip:
    def test_core_spec(self, tmp_path, core_spec):
        path = tmp_path / "cores.txt"
        save_core_spec_text(core_spec, path)
        loaded = load_core_spec_text(path)
        assert loaded.names == ["ARM", "MEM0"]
        assert loaded[0].height == pytest.approx(1.25)

    def test_comm_spec(self, tmp_path, comm_spec):
        path = tmp_path / "comm.txt"
        save_comm_spec_text(comm_spec, path)
        loaded = load_comm_spec_text(path)
        assert loaded[0].bandwidth == pytest.approx(400.0)
        assert loaded[1].message_type is MessageType.RESPONSE

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "cores.txt"
        path.write_text("# comment\n\ncore A 1 1 0 0 0  # trailing\n")
        loaded = load_core_spec_text(path)
        assert loaded.names == ["A"]

    def test_malformed_line_raises_with_lineno(self, tmp_path):
        path = tmp_path / "cores.txt"
        path.write_text("core A 1 1 0 0\n")  # missing layer
        with pytest.raises(SpecError, match=":1"):
            load_core_spec_text(path)

    def test_flow_default_message_type(self, tmp_path):
        path = tmp_path / "comm.txt"
        path.write_text("flow A B 100 8\n")
        loaded = load_comm_spec_text(path)
        assert loaded[0].message_type is MessageType.REQUEST
