"""TSV macro placement (repro.floorplan.tsv_macros, paper Sec. III)."""

import pytest

from repro.floorplan.geometry import Rect
from repro.floorplan.placement import ChipFloorplan, PlacedComponent
from repro.floorplan.tsv_macros import (
    VerticalLinkSpec,
    place_tsv_macros,
)
from repro.models.tsv_model import TsvModel


def _fp(num_layers=3):
    fp = ChipFloorplan()
    for layer in range(num_layers):
        fp.add(PlacedComponent(f"core{layer}", "core", Rect(0, 0, 2, 2), layer))
        fp.add(PlacedComponent(f"mem{layer}", "core", Rect(2.5, 0, 2, 2), layer))
    return fp


class TestVerticalLinkSpec:
    def test_intermediate_layers(self):
        spec = VerticalLinkSpec("l", 0, 3, (1.0, 1.0))
        assert spec.intermediate_layers == [1, 2]

    def test_adjacent_link_has_none(self):
        assert VerticalLinkSpec("l", 1, 2, (0, 0)).intermediate_layers == []

    def test_rejects_inverted_layers(self):
        with pytest.raises(ValueError):
            VerticalLinkSpec("l", 2, 1, (0, 0))


class TestPlaceTsvMacros:
    def test_adjacent_links_add_nothing(self):
        fp = _fp()
        out = place_tsv_macros(
            fp, [VerticalLinkSpec("l", 0, 1, (1.0, 1.0))], TsvModel(), 32
        )
        assert len(out) == len(fp)
        assert not out.of_kind("tsv")

    def test_multilayer_link_gets_intermediate_macro(self):
        fp = _fp()
        out = place_tsv_macros(
            fp, [VerticalLinkSpec("l5", 0, 2, (1.0, 1.0))], TsvModel(), 32
        )
        tsvs = out.of_kind("tsv")
        assert len(tsvs) == 1
        assert tsvs[0].layer == 1
        assert tsvs[0].name == "tsv:l5:L1"
        assert out.is_legal()

    def test_macro_near_top_component(self):
        fp = _fp()
        out = place_tsv_macros(
            fp, [VerticalLinkSpec("l", 0, 2, (1.0, 1.0))], TsvModel(), 32,
            search_radius=3.0,
        )
        macro = out.of_kind("tsv")[0]
        cx, cy = macro.center
        assert abs(cx - 1.0) + abs(cy - 1.0) < 3.5

    def test_macro_area_matches_model(self):
        model = TsvModel()
        fp = _fp()
        out = place_tsv_macros(
            fp, [VerticalLinkSpec("l", 0, 2, (1.0, 1.0))], model, 32
        )
        macro = out.of_kind("tsv")[0]
        assert macro.rect.area == pytest.approx(model.macro_area_mm2(32), rel=1e-6)

    def test_three_layer_span_two_macros(self):
        fp = _fp(4)
        out = place_tsv_macros(
            fp, [VerticalLinkSpec("l", 0, 3, (1.0, 1.0))], TsvModel(), 32
        )
        layers = sorted(c.layer for c in out.of_kind("tsv"))
        assert layers == [1, 2]
        assert out.is_legal()

    def test_cores_preserved(self):
        fp = _fp()
        out = place_tsv_macros(
            fp, [VerticalLinkSpec("l", 0, 2, (1.0, 1.0))], TsvModel(), 32
        )
        assert {c.name for c in out.of_kind("core")} == {
            c.name for c in fp.of_kind("core")
        }

    def test_macro_on_coreless_layer_keeps_its_layer(self):
        # Cores on layers 0 and 2 only: the intermediate macro of a 0->2
        # link must land on layer 1, not on layer 0 on top of core0.
        fp = ChipFloorplan()
        fp.add(PlacedComponent("core0", "core", Rect(0, 0, 2, 2), 0))
        fp.add(PlacedComponent("core2", "core", Rect(0, 0, 2, 2), 2))
        out = place_tsv_macros(
            fp, [VerticalLinkSpec("l", 0, 2, (1.0, 1.0))], TsvModel(), 32
        )
        macro = out.by_name("tsv:l:L1")
        assert macro.layer == 1
        assert macro.center == pytest.approx((1.0, 1.0))
        assert out.is_legal()
