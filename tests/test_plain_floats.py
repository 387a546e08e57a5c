"""No numpy scalar reaches the data model.

The placement LP hands back switch positions as numpy scalars. Stored as
such, they flow on into every link length, rectangle and metric of a
design point, and every stage record, worker-to-parent transfer and store
entry then pickles them at several times the cost of a plain float. So
every :class:`DesignPoint` and every stage record written while computing
it must hold plain Python numbers only: over generated specs and
d26_media, with the ``custom`` and ``constrained`` floorplanners, in
Phase 1 and Phase 2. ``make fuzz`` runs the generated specs under the
large ``fuzz`` profile (capped at 1000 examples).
"""

import dataclasses
import enum
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.registry import get_benchmark
from repro.core.config import SynthesisConfig
from repro.core.pipeline import FlowContext, run_synthesis
from repro.engine.stagecache import open_stage_cache

from tests.test_integration_properties import random_design

_ATOMS = (str, bytes, int, float, bool, type(None))


def numpy_scalars(root, where):
    """``"<path>: <type>"`` for every numpy scalar reachable from ``root``."""
    found = []
    seen = set()
    stack = [(root, where)]
    while stack:
        value, path = stack.pop()
        if isinstance(value, np.generic):
            found.append(f"{path}: {type(value).__name__}")
            continue
        if isinstance(value, _ATOMS + (type, enum.Enum)) or id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, dict):
            for key, item in value.items():
                stack.append((key, f"{path} key {key!r}"))
                stack.append((item, f"{path}[{key!r}]"))
        elif isinstance(value, (list, tuple, set, frozenset)):
            stack.extend((item, f"{path}[{i}]") for i, item in enumerate(value))
        elif dataclasses.is_dataclass(value):
            stack.extend(
                (getattr(value, f.name), f"{path}.{f.name}")
                for f in dataclasses.fields(value)
            )
        elif hasattr(value, "__dict__"):
            stack.extend((item, f"{path}.{name}")
                         for name, item in vars(value).items())
        else:
            raise AssertionError(f"{path}: cannot walk {type(value).__name__}")
    return found


def synthesize_checked(ctx):
    """Run the flow under a fresh stage cache; return the result and the
    numpy scalars found in its points and in each record as it is written."""
    found = []
    with tempfile.TemporaryDirectory() as root:
        cache = open_stage_cache(root)
        put = cache.store.put

        def checked_put(fingerprint, payload, **kwargs):
            found.extend(numpy_scalars(payload.outputs, f"stage:{payload.stage}"))
            return put(fingerprint, payload, **kwargs)

        cache.store.put = checked_put
        result = run_synthesis(ctx, stage_cache=cache)
    for i, point in enumerate(result.points):
        found.extend(numpy_scalars(point, f"points[{i}]"))
    return result, found


# Tier-1 runs Hypothesis' default budget; the 'fuzz' profile's is capped
# at 1000 examples here (about 0.1 s each on 2 vCPUs).
@settings(
    max_examples=min(settings.default.max_examples, 1000),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    design=random_design(),
    phase=st.sampled_from(["phase1", "phase2"]),
    floorplanner=st.sampled_from(["custom", "constrained"]),
)
def test_generated_designs_hold_plain_numbers(design, phase, floorplanner):
    core_spec, comm_spec = design
    config = SynthesisConfig(
        max_ill=8, switch_count_range=(1, 4), phase=phase,
        floorplanner=floorplanner,
    )
    _result, found = synthesize_checked(
        FlowContext.build(core_spec, comm_spec, config=config)
    )
    assert found == []


@pytest.mark.parametrize("floorplanner", ["custom", "constrained"])
@pytest.mark.parametrize("phase", ["phase1", "phase2"])
def test_d26_media_holds_plain_numbers(phase, floorplanner):
    bench = get_benchmark("d26_media")
    config = SynthesisConfig(phase=phase, floorplanner=floorplanner)
    result, found = synthesize_checked(
        FlowContext.build(bench.core_spec_3d, bench.comm_spec, config=config)
    )
    assert result.points
    assert found == []


def test_walker_finds_a_numpy_scalar():
    point = {"x": [1.0, (2, np.float64(3.0))]}
    assert numpy_scalars(point, "p") == ["p['x'][1][1]: float64"]
