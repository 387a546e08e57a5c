"""Core specification (repro.spec.core_spec)."""

import math

import pytest

from repro.errors import SpecError
from repro.spec.core_spec import Core, CoreSpec


class TestCore:
    def test_area_and_center(self):
        core = Core("A", 2.0, 1.0, 1.0, 2.0, 0)
        assert core.area == pytest.approx(2.0)
        assert core.center == pytest.approx((2.0, 2.5))

    def test_rejects_empty_name(self):
        with pytest.raises(SpecError):
            Core("", 1.0, 1.0)

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(SpecError):
            Core("A", 0.0, 1.0)
        with pytest.raises(SpecError):
            Core("A", 1.0, -2.0)

    def test_rejects_negative_layer(self):
        with pytest.raises(SpecError):
            Core("A", 1.0, 1.0, layer=-1)

    @pytest.mark.parametrize("field, value", [
        ("width", math.nan), ("height", math.inf), ("x", -math.inf),
        ("y", math.nan), ("width", True), ("x", "1.0"),
    ])
    def test_rejects_non_finite_or_non_numeric_geometry(self, field, value):
        with pytest.raises(SpecError, match=field):
            Core("A", **{"width": 1.0, "height": 1.0, field: value})

    @pytest.mark.parametrize("layer", [True, False, 1.0, 1.5, "1", None])
    def test_rejects_non_integer_layer(self, layer):
        with pytest.raises(SpecError, match="layer"):
            Core("A", 1.0, 1.0, layer=layer)

    def test_moved_to_preserves_other_fields(self):
        core = Core("A", 1.0, 2.0, 0.0, 0.0, 3)
        moved = core.moved_to(5.0, 6.0)
        assert (moved.x, moved.y) == (5.0, 6.0)
        assert moved.layer == 3 and moved.width == 1.0

    def test_on_layer(self):
        assert Core("A", 1.0, 1.0).on_layer(2).layer == 2


class TestCoreSpec:
    def _spec(self):
        return CoreSpec(cores=[
            Core("A", 1.0, 1.0, 0.0, 0.0, 0),
            Core("B", 1.0, 1.0, 2.0, 0.0, 0),
            Core("C", 1.0, 1.0, 0.0, 0.0, 1),
        ])

    def test_rejects_duplicate_names(self):
        with pytest.raises(SpecError):
            CoreSpec(cores=[Core("A", 1, 1), Core("A", 1, 1)])

    def test_index_and_name_lookup(self):
        spec = self._spec()
        assert spec.index_of("B") == 1
        assert spec.by_name("C").layer == 1
        with pytest.raises(SpecError):
            spec.index_of("Z")

    def test_layer_queries(self):
        spec = self._spec()
        assert spec.num_layers == 2
        assert [c.name for c in spec.cores_in_layer(0)] == ["A", "B"]
        assert spec.indices_in_layer(1) == [2]
        assert spec.layers == {0: [0, 1], 1: [2]}

    def test_total_core_area(self):
        spec = self._spec()
        assert spec.total_core_area() == pytest.approx(3.0)
        assert spec.total_core_area(layer=0) == pytest.approx(2.0)

    def test_with_positions(self):
        spec = self._spec()
        moved = spec.with_positions([(1, 1), (2, 2), (3, 3)])
        assert moved[0].x == 1 and moved[2].y == 3
        # original untouched
        assert spec[0].x == 0.0

    def test_with_positions_wrong_length(self):
        with pytest.raises(SpecError):
            self._spec().with_positions([(0, 0)])

    def test_with_layers_and_flatten(self):
        spec = self._spec()
        relayered = spec.with_layers([1, 1, 0])
        assert relayered[0].layer == 1
        flat = spec.flattened_to_2d()
        assert flat.num_layers == 1
        assert all(c.layer == 0 for c in flat)

    def test_iteration_and_len(self):
        spec = self._spec()
        assert len(spec) == 3
        assert [c.name for c in spec] == ["A", "B", "C"]
