"""Rectangle geometry (repro.floorplan.geometry)."""

import pytest
from hypothesis import given, strategies as st

from repro.floorplan.geometry import (
    Rect,
    bounding_box,
    overlap_area,
    rects_overlap,
)


class TestRect:
    def test_derived_properties(self):
        r = Rect(1.0, 2.0, 3.0, 4.0)
        assert r.x2 == 4.0 and r.y2 == 6.0
        assert r.area == 12.0
        assert r.center == (2.5, 4.0)

    def test_negative_dims_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 0, -1.0, 2.0)

    def test_moved_translated(self):
        r = Rect(0, 0, 1, 1)
        assert r.moved_to(5, 6).x == 5
        assert r.translated(1, 2).y == 2

    def test_contains_point(self):
        r = Rect(0, 0, 2, 2)
        assert r.contains_point(1, 1)
        assert r.contains_point(0, 0)  # boundary
        assert not r.contains_point(3, 1)


class TestOverlap:
    def test_overlapping(self):
        assert rects_overlap(Rect(0, 0, 2, 2), Rect(1, 1, 2, 2))

    def test_disjoint(self):
        assert not rects_overlap(Rect(0, 0, 1, 1), Rect(5, 5, 1, 1))

    def test_abutting_edges_do_not_overlap(self):
        assert not rects_overlap(Rect(0, 0, 1, 1), Rect(1.0, 0, 1, 1))

    def test_contained(self):
        assert rects_overlap(Rect(0, 0, 10, 10), Rect(2, 2, 1, 1))

    def test_overlap_area(self):
        assert overlap_area(Rect(0, 0, 2, 2), Rect(1, 1, 2, 2)) == pytest.approx(1.0)
        assert overlap_area(Rect(0, 0, 1, 1), Rect(3, 3, 1, 1)) == 0.0


class TestBoundingBox:
    def test_empty(self):
        assert bounding_box([]) is None

    def test_single(self):
        bbox = bounding_box([Rect(1, 2, 3, 4)])
        assert bbox == Rect(1, 2, 3, 4)

    def test_multiple(self):
        bbox = bounding_box([Rect(0, 0, 1, 1), Rect(4, 5, 1, 1)])
        assert bbox.x2 == 5.0 and bbox.y2 == 6.0


class TestOverlapProperties:
    rect_strategy = st.builds(
        Rect,
        x=st.floats(min_value=0, max_value=100),
        y=st.floats(min_value=0, max_value=100),
        width=st.floats(min_value=0.1, max_value=50),
        height=st.floats(min_value=0.1, max_value=50),
    )

    @given(a=rect_strategy, b=rect_strategy)
    def test_overlap_symmetric(self, a, b):
        assert rects_overlap(a, b) == rects_overlap(b, a)

    @given(a=rect_strategy, b=rect_strategy)
    def test_positive_overlap_area_iff_overlap(self, a, b):
        area = overlap_area(a, b)
        if rects_overlap(a, b):
            assert area > 0
        else:
            assert area <= 1e-6 * min(a.area, b.area) + 1e-9

    @given(a=rect_strategy)
    def test_self_overlap(self, a):
        assert rects_overlap(a, a)
        assert overlap_area(a, a) == pytest.approx(a.area)

    @given(rects=st.lists(rect_strategy, min_size=1, max_size=8))
    def test_bbox_contains_all(self, rects):
        bbox = bounding_box(rects)
        for r in rects:
            assert bbox.x <= r.x + 1e-9 and bbox.y <= r.y + 1e-9
            assert bbox.x2 >= r.x2 - 1e-9 and bbox.y2 >= r.y2 - 1e-9
