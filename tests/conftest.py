"""Shared fixtures: small, fast synthetic designs used across the suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.models.library import default_library
from repro.spec.comm_spec import CommSpec, MessageType, TrafficFlow
from repro.spec.core_spec import Core, CoreSpec


# ``make fuzz`` selects this profile (``--hypothesis-profile=fuzz``); it sets
# the budget of every property test that does not pin its own.
settings.register_profile("fuzz", max_examples=5000, deadline=None)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: annealer/simulator/experiment-heavy test "
        "(deselect with -m 'not slow', e.g. via make test-fast)",
    )


def grid_core_spec(n: int, num_layers: int, side: float = 1.0, gap: float = 0.3) -> CoreSpec:
    """n unit cores laid out on a non-overlapping grid, round-robin layers.

    Deterministic legal floorplan: cores of each layer tile a small grid.
    """
    cores = []
    per_layer = {}
    for i in range(n):
        layer = i % num_layers
        slot = per_layer.get(layer, 0)
        per_layer[layer] = slot + 1
        cols = 3
        x = (slot % cols) * (side + gap)
        y = (slot // cols) * (side + gap)
        cores.append(Core(f"C{i}", side, side, x, y, layer))
    return CoreSpec(cores=cores)


@pytest.fixture
def contended_topo():
    from _simtopo import contended_topology

    return contended_topology()


@pytest.fixture
def library():
    return default_library()


@pytest.fixture
def tiny_specs():
    """6 cores on 2 layers, a ring of requests plus one response flow."""
    core_spec = grid_core_spec(6, 2)
    flows = [
        TrafficFlow("C0", "C1", 200, 8),
        TrafficFlow("C1", "C2", 150, 8),
        TrafficFlow("C2", "C3", 400, 8),
        TrafficFlow("C3", "C4", 100, 8),
        TrafficFlow("C4", "C5", 300, 8),
        TrafficFlow("C5", "C0", 120, 10, MessageType.RESPONSE),
    ]
    return core_spec, CommSpec(flows=flows)


@pytest.fixture
def small_specs():
    """9 cores on 3 layers with mixed request/response traffic."""
    core_spec = grid_core_spec(9, 3)
    flows = [
        TrafficFlow("C0", "C3", 500, 10),
        TrafficFlow("C3", "C0", 350, 10, MessageType.RESPONSE),
        TrafficFlow("C0", "C1", 220, 8),
        TrafficFlow("C1", "C4", 180, 8),
        TrafficFlow("C4", "C7", 260, 12),
        TrafficFlow("C7", "C4", 140, 12, MessageType.RESPONSE),
        TrafficFlow("C2", "C5", 90, 14),
        TrafficFlow("C5", "C8", 310, 9),
        TrafficFlow("C8", "C2", 130, 14, MessageType.RESPONSE),
        TrafficFlow("C6", "C0", 70, 16),
        TrafficFlow("C3", "C6", 240, 10),
    ]
    return core_spec, CommSpec(flows=flows)


@pytest.fixture
def single_layer_specs():
    """8 cores, one layer — exercises the 2-D ([16]) flow."""
    core_spec = grid_core_spec(8, 1)
    flows = [
        TrafficFlow("C0", "C1", 400, 8),
        TrafficFlow("C1", "C2", 300, 8),
        TrafficFlow("C2", "C3", 200, 8),
        TrafficFlow("C4", "C5", 350, 8),
        TrafficFlow("C5", "C6", 250, 8),
        TrafficFlow("C6", "C7", 150, 8),
        TrafficFlow("C7", "C0", 100, 12),
        TrafficFlow("C3", "C4", 120, 12),
    ]
    return core_spec, CommSpec(flows=flows)
