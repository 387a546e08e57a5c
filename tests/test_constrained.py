"""Constrained standard-floorplanner baseline (repro.floorplan.constrained)."""

import pytest

from repro.errors import FloorplanError
from repro.floorplan.constrained import constrained_insert
from repro.floorplan.geometry import Rect
from repro.floorplan.inserter import NewComponent
from repro.floorplan.placement import ChipFloorplan, PlacedComponent


def _cores(*rects, layer=0):
    return [
        PlacedComponent(name=f"core{i}", kind="core", rect=r, layer=layer)
        for i, r in enumerate(rects)
    ]


class TestConstrainedInsert:
    def test_no_new_components_is_identity(self):
        cores = _cores(Rect(0, 0, 1, 1), Rect(2, 0, 1, 1))
        out = constrained_insert(cores, [], layer=0)
        assert out == list(cores)

    def test_result_is_legal(self):
        cores = _cores(Rect(0, 0, 1, 1), Rect(1.2, 0, 1, 1), Rect(0, 1.2, 1, 1))
        new = [
            NewComponent("sw0", "switch", 0.3, 0.3, (0.6, 0.6)),
            NewComponent("sw1", "switch", 0.3, 0.3, (1.5, 1.5)),
        ]
        out = constrained_insert(cores, new, layer=0, seed=1, moves=600)
        fp = ChipFloorplan(components=out)
        assert fp.is_legal()
        assert len(out) == 5

    def test_core_relative_order_preserved(self):
        """The defining constraint: cores never swap relative positions."""
        cores = _cores(
            Rect(0, 0, 1, 1), Rect(2, 0, 1, 1), Rect(4, 0, 1, 1)
        )
        new = [NewComponent("sw0", "switch", 0.5, 0.5, (2.5, 0.5))]
        out = constrained_insert(cores, new, layer=0, seed=2, moves=800)
        xs = {c.name: c.rect.x for c in out if c.kind == "core"}
        assert xs["core0"] < xs["core1"] < xs["core2"]

    def test_deterministic(self):
        cores = _cores(Rect(0, 0, 1, 1), Rect(1.5, 0, 1, 1))
        new = [NewComponent("sw0", "switch", 0.4, 0.4, (1.0, 1.0))]
        a = constrained_insert(cores, new, layer=0, seed=9, moves=300)
        b = constrained_insert(cores, new, layer=0, seed=9, moves=300)
        assert [(c.name, c.rect) for c in a] == [(c.name, c.rect) for c in b]

    def test_mixed_layers_rejected(self):
        comps = [
            PlacedComponent("a", "core", Rect(0, 0, 1, 1), 0),
            PlacedComponent("b", "core", Rect(2, 0, 1, 1), 1),
        ]
        with pytest.raises(FloorplanError):
            constrained_insert(
                comps, [NewComponent("s", "switch", 0.1, 0.1, (0, 0))], layer=0
            )

    def test_switch_near_ideal_when_space_allows(self):
        # A lone pair of cores with plenty of room: the displacement term
        # should keep the switch near its ideal centre.
        cores = _cores(Rect(0, 0, 1, 1), Rect(3, 0, 1, 1))
        new = [NewComponent("sw0", "switch", 0.4, 0.4, (2.0, 0.5))]
        out = constrained_insert(cores, new, layer=0, seed=3, moves=1500)
        sw = [c for c in out if c.name == "sw0"][0]
        dist = abs(sw.center[0] - 2.0) + abs(sw.center[1] - 0.5)
        assert dist < 2.5
