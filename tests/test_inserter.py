"""Custom NoC-insertion routine (repro.floorplan.inserter, paper Sec. VII)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FloorplanError
from repro.floorplan.geometry import Rect
from repro.floorplan.inserter import (
    MAX_SEARCH_STEPS,
    InsertionReport,
    NewComponent,
    _CHUNK,
    _search_offsets,
    insert_components,
)
from repro.floorplan.placement import ChipFloorplan, PlacedComponent
from repro.floorplan.reference import naive_insert_components


def _cores(*rects, layer=0):
    return [
        PlacedComponent(name=f"core{i}", kind="core", rect=r, layer=layer)
        for i, r in enumerate(rects)
    ]


def _legal(components):
    fp = ChipFloorplan(components=list(components))
    return fp.is_legal()


class TestFreeSpaceSearch:
    def test_places_at_ideal_when_free(self):
        cores = _cores(Rect(0, 0, 1, 1))
        new = [NewComponent("sw0", "switch", 0.2, 0.2, ideal_center=(3.0, 3.0))]
        out = insert_components(cores, new, layer=0)
        sw = [c for c in out if c.name == "sw0"][0]
        assert sw.center == pytest.approx((3.0, 3.0))

    def test_finds_nearby_free_spot(self):
        # Ideal position is inside a core; a gap exists just to the right.
        cores = _cores(Rect(0, 0, 2, 2))
        new = [NewComponent("sw0", "switch", 0.3, 0.3, ideal_center=(1.0, 1.0))]
        report = InsertionReport()
        out = insert_components(
            cores, new, layer=0, search_radius=2.0, report=report
        )
        assert _legal(out)
        assert report.placed_free == 1
        assert report.placed_by_displacement == 0
        # Core must not have moved: free-space insertion is non-invasive.
        core = [c for c in out if c.name == "core0"][0]
        assert (core.rect.x, core.rect.y) == (0.0, 0.0)

    def test_displacement_when_no_space(self):
        # Dense 3x3 block of cores, tiny search radius: must displace.
        rects = [Rect(i, j, 1, 1) for i in range(3) for j in range(3)]
        cores = _cores(*rects)
        new = [NewComponent("sw0", "switch", 1.0, 1.0, ideal_center=(1.5, 1.5))]
        report = InsertionReport()
        out = insert_components(
            cores, new, layer=0, search_radius=0.3, grid_step=0.1, report=report
        )
        assert _legal(out)
        assert report.placed_by_displacement == 1
        assert report.total_displacement > 0

    def test_multiple_insertions_reuse_gaps(self):
        rects = [Rect(i, 0, 1, 1) for i in range(4)]
        cores = _cores(*rects)
        new = [
            NewComponent(f"sw{k}", "switch", 0.4, 0.4, ideal_center=(2.0, 0.5))
            for k in range(3)
        ]
        out = insert_components(cores, new, layer=0, search_radius=3.0)
        assert _legal(out)
        assert len(out) == 7

    def test_empty_layer(self):
        new = [NewComponent("sw0", "switch", 0.5, 0.5, ideal_center=(1.0, 1.0))]
        out = insert_components([], new, layer=0)
        assert len(out) == 1 and _legal(out)

    def test_empty_layer_keeps_its_layer(self):
        new = [NewComponent("sw0", "switch", 0.5, 0.5, ideal_center=(1.0, 1.0))]
        out = insert_components([], new, layer=2)
        assert [c.layer for c in out] == [2]

    def test_existing_on_another_layer_rejected(self):
        with pytest.raises(FloorplanError):
            insert_components(_cores(Rect(0, 0, 1, 1), layer=1), [], layer=0)

    def test_mixed_layers_rejected(self):
        comps = [
            PlacedComponent("a", "core", Rect(0, 0, 1, 1), 0),
            PlacedComponent("b", "core", Rect(2, 0, 1, 1), 1),
        ]
        with pytest.raises(FloorplanError):
            insert_components(comps, [], layer=0)

    def test_clamps_to_nonnegative_coords(self):
        cores = _cores(Rect(0, 0, 1, 1))
        new = [NewComponent("sw0", "switch", 0.4, 0.4, ideal_center=(0.0, 0.0))]
        out = insert_components(cores, new, layer=0, search_radius=2.0)
        sw = [c for c in out if c.name == "sw0"][0]
        assert sw.rect.x >= 0 and sw.rect.y >= 0
        assert _legal(out)


class TestInsertionProperties:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_always_legal_and_complete(self, data):
        n_cores = data.draw(st.integers(min_value=0, max_value=6))
        # Non-overlapping cores on a grid with jitter-free placement.
        rects = [
            Rect((i % 3) * 1.5, (i // 3) * 1.5, 1.0, 1.0) for i in range(n_cores)
        ]
        cores = _cores(*rects)
        n_new = data.draw(st.integers(min_value=1, max_value=4))
        new = []
        for k in range(n_new):
            cx = data.draw(st.floats(min_value=0.0, max_value=5.0))
            cy = data.draw(st.floats(min_value=0.0, max_value=5.0))
            side = data.draw(st.floats(min_value=0.1, max_value=0.8))
            new.append(NewComponent(f"sw{k}", "switch", side, side, (cx, cy)))
        out = insert_components(
            cores, new, layer=0, search_radius=1.0, grid_step=0.25
        )
        assert len(out) == n_cores + n_new
        assert _legal(out)
        names = {c.name for c in out}
        assert all(f"sw{k}" in names for k in range(n_new))


# --------------------------------------------------------------------------
# trajectory identity against the frozen reference
# --------------------------------------------------------------------------

def _run(insert, existing, new, **kwargs):
    """Output components and report of one insertion, or the error."""
    report = InsertionReport()
    try:
        out = insert(existing, new, report=report, **kwargs)
    except FloorplanError as exc:
        return ("error", str(exc))
    return out, report


def _assert_matches_reference(existing, new, search_radius, grid_step):
    layer = existing[0].layer if existing else 0
    fast = _run(insert_components, existing, new, layer=layer,
                search_radius=search_radius, grid_step=grid_step)
    slow = _run(naive_insert_components, existing, new,
                search_radius=search_radius, grid_step=grid_step)
    assert fast == slow
    # Equal values of equal types: the numpy sweep hands back the scalars
    # the per-offset loop computed.
    assert repr(fast) == repr(slow)
    return slow


# Coordinates on 0.25 mm and 0.1 mm lattices make touching and coincident
# edges common, some of them a rounding error apart (k * 0.1 is inexact);
# free floats cover everything in between.
_coord = st.one_of(
    st.integers(min_value=0, max_value=24).map(lambda k: k * 0.25),
    st.integers(min_value=0, max_value=60).map(lambda k: k * 0.1),
    st.floats(min_value=0.0, max_value=6.0),
)
_size = st.one_of(
    st.integers(min_value=1, max_value=8).map(lambda k: k * 0.25),
    st.integers(min_value=1, max_value=20).map(lambda k: k * 0.1),
    st.floats(min_value=0.05, max_value=2.0),
)
# Ideal centres may fall off the die on either side.
_centre = st.one_of(
    st.integers(min_value=-10, max_value=80).map(lambda k: k * 0.1),
    st.floats(min_value=-1.5, max_value=8.0),
)
_radius = st.one_of(
    st.sampled_from([0.3, 1.0, 1.5, 2.0]),
    st.floats(min_value=0.05, max_value=2.0),
)
# 0.3, 0.4 and 0.7 do not divide most radii: the grid then reaches past
# the radius.
_step = st.one_of(
    st.sampled_from([0.1, 0.25, 0.3, 0.4, 0.7]),
    st.floats(min_value=0.1, max_value=1.0),
)


@st.composite
def _layers(draw):
    layer = draw(st.integers(min_value=0, max_value=3))
    n_existing = draw(st.integers(min_value=0, max_value=10))
    existing = [
        PlacedComponent(
            f"core{i}", "core",
            Rect(draw(_coord), draw(_coord), draw(_size), draw(_size)), layer,
        )
        for i in range(n_existing)
    ]
    n_new = draw(st.integers(min_value=1, max_value=5))
    new = []
    for k in range(n_new):
        side = draw(_size)
        new.append(NewComponent(
            f"sw{k}", draw(st.sampled_from(["switch", "tsv"])),
            side, draw(st.one_of(st.just(side), _size)),
            (draw(_centre), draw(_centre)),
        ))
    return existing, new


@st.composite
def _dense_blocks(draw):
    """A touching k x k block of cores with components dropped inside it."""
    k = draw(st.integers(min_value=2, max_value=4))
    pitch = draw(st.sampled_from([0.5, 1.0, 1.25]))
    existing = _cores(*[
        Rect(i * pitch, j * pitch, pitch, pitch)
        for i in range(k) for j in range(k)
    ])
    inside = st.floats(min_value=0.0, max_value=k * pitch)
    new = [
        NewComponent(f"sw{n}", "switch", draw(_size), draw(_size),
                     (draw(inside), draw(inside)))
        for n in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    return existing, new


@st.composite
def _walled(draw):
    """A core walling in the ideal position, so the nearest free offsets
    lie past the first chunk of the offset table (or nowhere in it), with
    gaps cut as slivers between the wall's pieces."""
    cx, cy = draw(_centre), draw(_centre)
    half = draw(st.floats(min_value=0.9, max_value=2.5))
    side = draw(st.floats(min_value=0.05, max_value=0.6))
    left, bottom = max(0.0, cx - half), max(0.0, cy - half)
    width = max(0.05, cx + half - left)
    height = max(0.05, cy + half - bottom)
    cut = draw(st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)))
    if cut is None:
        rects = [Rect(left, bottom, width, height)]
    else:
        # Two pieces with a gap of ``cut * side`` between them.
        split = left + draw(st.floats(min_value=0.1, max_value=0.9)) * width
        gap = cut * side
        rects = [
            Rect(left, bottom, split - left, height),
            Rect(split + gap, bottom, max(0.05, left + width - split - gap),
                 height),
        ]
    new = [NewComponent(f"sw{k}", "switch", side, side, (cx, cy))
           for k in range(draw(st.integers(min_value=1, max_value=3)))]
    return _cores(*rects), new


class TestMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(layer=_layers(), search_radius=_radius, grid_step=_step)
    def test_random_layers(self, layer, search_radius, grid_step):
        existing, new = layer
        _assert_matches_reference(existing, new, search_radius, grid_step)

    @settings(max_examples=60, deadline=None)
    @given(block=_dense_blocks(), search_radius=st.sampled_from([0.1, 0.3]),
           grid_step=_step)
    def test_dense_blocks_displace(self, block, search_radius, grid_step):
        existing, new = block
        _assert_matches_reference(existing, new, search_radius, grid_step)

    @settings(max_examples=60, deadline=None)
    @given(block=_walled(),
           search_radius=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           grid_step=st.sampled_from([0.05, 0.1, 0.15]))
    def test_walls_past_the_first_chunk(self, block, search_radius,
                                         grid_step):
        existing, new = block
        _assert_matches_reference(existing, new, search_radius, grid_step)

    def test_free_spot_in_a_later_chunk(self):
        # A 3 mm wall centred on the ideal position: with step 0.1 the
        # nearest free offsets are 1.7 mm away, at table index > 256.
        wall = Rect(3.5, 3.5, 3.0, 3.0)
        new = [NewComponent("sw0", "switch", 0.4, 0.4, ideal_center=(5.0, 5.0))]
        _reach, offsets_x, _offsets_y = _search_offsets(2.0, 0.1)
        assert len(offsets_x) > 2 * _CHUNK
        out, report = _assert_matches_reference(_cores(wall), new, 2.0, 0.1)
        assert report.placed_free == 1
        x, y = out[-1].rect.x, out[-1].rect.y
        assert abs(x - 4.8) + abs(y - 4.8) > 1.5

    def test_fully_blocked_window_displaces(self):
        # The wall covers the whole search window: no free offset in any
        # chunk, so the component is placed by displacement.
        wall = Rect(0.0, 0.0, 10.0, 10.0)
        new = [NewComponent("sw0", "switch", 0.3, 0.3, ideal_center=(5.0, 5.0))]
        _out, report = _assert_matches_reference(_cores(wall), new, 2.0, 0.1)
        assert report.placed_by_displacement == 1

    def test_empty_window(self):
        # Rects exist but none reaches the window: the ideal spot is free.
        far = [Rect(20.0, 20.0, 1.0, 1.0), Rect(0.0, 30.0, 2.0, 1.0)]
        new = [NewComponent("sw0", "switch", 0.5, 0.5, ideal_center=(2.0, 2.0))]
        out, report = _assert_matches_reference(_cores(*far), new, 1.0, 0.1)
        assert report.placed_free == 1
        assert out[-1].rect == Rect(1.75, 1.75, 0.5, 0.5)

    @pytest.mark.parametrize("side", ["left", "right", "below", "above"])
    def test_candidate_edge_exactly_eps_from_a_rect(self, side):
        # ``post`` blocks the ideal spot (2.0, 2.0) and every offset but
        # one, 0.5 mm towards ``side``; there the candidate's edge lies
        # exactly eps from ``wall``'s facing edge, so the comparison of
        # ``rects_overlap`` is an equality and the spot is free. A ``<=``
        # in that comparison would send the component to displacement.
        eps, tx, step, w = 1e-9, 2.0, 0.5, 0.5
        if side in ("left", "below"):
            wall = Rect(0.0, 0.0, (tx + -step) + eps, 10.0)
            post = Rect(tx + w - step / 2, 0.0, 5.0, 10.0)
            spot = tx - step
        else:
            edge = (tx + step) + w  # the candidate's far edge
            left = edge - eps
            while left + eps < edge:
                left = math.nextafter(left, math.inf)
            while left + eps > edge:
                left = math.nextafter(left, -math.inf)
            assert left + eps == edge
            wall = Rect(left, 0.0, 5.0, 10.0)
            post = Rect(0.0, 0.0, tx + step / 2, 10.0)
            spot = tx + step
        expected = Rect(spot, tx, w, w)
        if side in ("below", "above"):  # the same layout, x and y swapped
            wall, post, expected = (Rect(r.y, r.x, r.height, r.width)
                                    for r in (wall, post, expected))
        new = [NewComponent("sw0", "switch", w, w, ideal_center=(2.25, 2.25))]
        out, report = _assert_matches_reference(
            _cores(wall, post), new, 1.0, step
        )
        assert report.placed_free == 1
        assert out[-1].rect == expected

    def test_numpy_ideal_centres_keep_their_type(self):
        # Ideal centres come from the LP as numpy floats; a spot found in
        # the sweep keeps that type, as the scalar search did.
        core = Rect(0.0, 0.0, 2.0, 2.0)
        new = [NewComponent("sw0", "switch", 0.3, 0.3,
                            ideal_center=(np.float64(1.0), np.float64(1.0)))]
        out, report = _assert_matches_reference(_cores(core), new, 2.0, 0.1)
        assert report.placed_free == 1
        assert type(out[-1].rect.x) is np.float64
        assert type(out[-1].rect.y) is np.float64

    def test_displacement_path(self):
        rects = [Rect(i, j, 1, 1) for i in range(3) for j in range(3)]
        new = [
            NewComponent("sw0", "switch", 1.0, 1.0, ideal_center=(1.5, 1.5)),
            NewComponent("sw1", "switch", 0.6, 0.6, ideal_center=(0.5, 2.5)),
        ]
        _out, report = _assert_matches_reference(_cores(*rects), new, 0.3, 0.1)
        assert report.placed_by_displacement == 2
        assert report.total_displacement > 0

    def test_empty_layer(self):
        new = [
            NewComponent("sw0", "switch", 0.5, 0.5, ideal_center=(1.0, 1.0)),
            NewComponent("sw1", "switch", 0.5, 0.5, ideal_center=(1.1, 1.0)),
        ]
        _out, report = _assert_matches_reference([], new, 1.0, 0.1)
        assert report.placed_free == 2

    def test_edges_within_eps_touch(self):
        # The core's right edge is 0.5 nm past the target's left edge:
        # closer than the overlap tolerance, so the ideal spot is free.
        core = Rect(0.0, 0.0, 0.75 + 5e-10, 1.0)
        new = [NewComponent("sw0", "switch", 0.5, 0.5, ideal_center=(1.0, 0.5))]
        out, report = _assert_matches_reference(_cores(core), new, 1.0, 0.1)
        assert report.placed_free == 1
        assert out[-1].rect == Rect(0.75, 0.25, 0.5, 0.5)

    def test_rect_clipping_the_outermost_column(self):
        # ``wall`` blocks every column but the leftmost (dx = -1.0), and
        # ``sliver`` overlaps that column by 0.01 mm: the prefilter must
        # keep a rect that only reaches the window's edge.
        wall = Rect(4.5, 0.0, 6.0, 10.0)
        sliver = Rect(3.0, 0.0, 1.01, 10.0)
        new = [NewComponent("sw0", "switch", 0.5, 0.5, ideal_center=(5.25, 5.25))]
        _out, report = _assert_matches_reference(
            _cores(wall, sliver), new, 1.0, 0.5
        )
        assert report.placed_by_displacement == 1

    def test_grid_reaching_past_the_radius(self):
        # Radius 1.0 with step 0.3: the grid's outermost offset is 1.2.
        # The only column clear of ``wall`` is at dx = +1.2, and ``post``
        # overlaps it by 0.01 mm. A prefilter sized by the radius instead
        # of the grid would drop ``post`` and accept that column.
        wall = Rect(0.0, 0.0, 6.15, 10.0)
        post = Rect(6.69, 0.0, 1.0, 10.0)
        new = [NewComponent("sw0", "switch", 0.5, 0.5, ideal_center=(5.25, 5.25))]
        _out, report = _assert_matches_reference(
            _cores(wall, post), new, 1.0, 0.3
        )
        assert report.placed_by_displacement == 1


class TestGridBound:
    """A search grid finer than ``MAX_SEARCH_STEPS`` per side is refused
    before its offset table is built."""

    def test_too_many_steps_refused(self):
        new = [NewComponent("sw0", "switch", 0.5, 0.5, ideal_center=(1.0, 1.0))]
        with pytest.raises(FloorplanError, match="grid steps per side"):
            insert_components([], new, layer=0, search_radius=1.0,
                              grid_step=1e-6)

    def test_largest_grid_accepted(self):
        reach, offsets_x, offsets_y = _search_offsets(
            MAX_SEARCH_STEPS * 0.5, 0.5)
        assert reach == MAX_SEARCH_STEPS * 0.5
        assert len(offsets_x) == len(offsets_y) == (2 * MAX_SEARCH_STEPS + 1) ** 2 - 1

    @pytest.mark.parametrize("grid_step", [0.0, -0.1, float("nan")])
    def test_non_positive_step_refused(self, grid_step):
        new = [NewComponent("sw0", "switch", 0.5, 0.5, ideal_center=(1.0, 1.0))]
        with pytest.raises(FloorplanError, match="grid_step"):
            insert_components([], new, layer=0, search_radius=1.0,
                              grid_step=grid_step)
