"""The switch-placement LP against its frozen oracle.

:func:`repro.core.placement.optimise_switch_positions` builds Eqs. 2-5 as
arrays and appends them to the LP as one block of rows; the frozen
:func:`repro.engine.reference.naive_optimise_switch_positions` states them
one variable and one constraint at a time. Both must hand HiGHS the same
program, so the live function must return the same objective and set
bitwise-equal switch positions of the same type, or raise the same
:class:`~repro.errors.LPError`.

Hypothesis draws topologies through the :class:`Topology` API: 1-8
switches on up to three layers, cores attached to any switch (an injection
and an ejection link each), switch-switch links in one or both directions,
some of them parallel, switches nothing connects to, loads that are zero,
tied or free floats, core centres on and off the die, and die bounds that
are tiny, large, zero or negative. A last test replays every LP of a
default and of a Phase 2 d26_media synthesis and checks that the
objective, the CSC constraint matrix, the right-hand sides and the bounds
handed to ``linprog`` are equal element for element. ``make fuzz`` runs
the generated test under the large ``fuzz`` profile (``tests/conftest.py``).
"""

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.sparse import csc_array

import repro.core.pipeline as pipeline
import repro.lp.scipy_backend as scipy_backend
from repro.bench.registry import get_benchmark
from repro.core.config import SynthesisConfig
from repro.core.pipeline import FlowContext, run_synthesis
from repro.core.placement import optimise_switch_positions
from repro.engine.reference import naive_optimise_switch_positions
from repro.errors import LPError
from repro.noc.topology import Topology

_load = st.one_of(
    st.just(0.0),
    st.sampled_from([0.1, 0.2, 0.3, 100.0, 250.0]),
    st.floats(min_value=0.0, max_value=2000.0),
)
_coord = st.one_of(
    st.integers(min_value=0, max_value=12).map(lambda k: k * 0.5),
    st.floats(min_value=-2.0, max_value=14.0),
)
_die = st.one_of(
    st.sampled_from([0.5, 3.0, 10.0, 12.5]),
    st.floats(min_value=0.01, max_value=50.0),
    st.sampled_from([0.0, -1.0]),
)


@st.composite
def placement_problems(draw):
    """A topology with loaded links, every core's centre, and die bounds."""
    topo = Topology(frequency_mhz=400.0, width_bits=32)
    n_switches = draw(st.integers(min_value=1, max_value=8))
    for _ in range(n_switches):
        topo.add_switch(draw(st.integers(min_value=0, max_value=2)))
    # Some switches stay unconnected: cores and links avoid them.
    used = draw(st.lists(st.integers(0, n_switches - 1), min_size=1,
                         max_size=n_switches, unique=True))
    centres = {}
    for core in range(draw(st.integers(min_value=0, max_value=10))):
        topo.attach_core(core, draw(st.sampled_from(used)),
                         draw(st.integers(min_value=0, max_value=2)))
        centres[core] = (draw(_coord), draw(_coord))
    if len(used) > 1:
        for _ in range(draw(st.integers(min_value=0, max_value=12))):
            a, b = draw(st.lists(st.sampled_from(used), min_size=2,
                                 max_size=2, unique=True))
            topo.add_switch_link(a, b)
            if draw(st.booleans()):
                topo.add_switch_link(b, a)
    for link in topo.links:
        link.load_mbps = draw(_load)
    return topo, centres, draw(_die), draw(_die)


def _placed(optimise, topo, centres, width, height):
    """Objective and every switch's (x, y), or the error; on a copy."""
    topo = copy.deepcopy(topo)
    try:
        objective = optimise(topo, centres, width, height)
    except LPError as exc:
        return type(exc), str(exc)
    return objective, [(sw.x, sw.y) for sw in topo.switches]


def _bits(value):
    """A float's exact bits (``-0.0`` differs from ``0.0``)."""
    return float(value).hex()


def _assert_same_placement(topo, centres, width, height):
    live = _placed(optimise_switch_positions, topo, centres, width, height)
    naive = _placed(naive_optimise_switch_positions, topo, centres, width,
                    height)
    if isinstance(naive[1], str):
        assert live == naive
        return naive
    assert type(live[0]) is type(naive[0])
    assert _bits(live[0]) == _bits(naive[0])
    # The oracle may hand back numpy scalars; the live positions are plain
    # floats (they flow into every length and metric of a design point)
    # with the oracle's exact bits.
    assert all(type(v) is float for xy in live[1] for v in xy)
    assert [tuple(map(_bits, xy)) for xy in live[1]] == [
        tuple(map(_bits, xy)) for xy in naive[1]
    ]
    return naive


class TestMatchesOracle:
    # No pinned budget: tier-1 runs Hypothesis' default, ``make fuzz`` the
    # large ``fuzz`` profile.
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(problem=placement_problems())
    def test_generated_topologies(self, problem):
        _assert_same_placement(*problem)

    def test_bad_die_bounds_same_error(self):
        topo = Topology(frequency_mhz=400.0, width_bits=32)
        topo.add_switch(0)
        topo.attach_core(0, 0, 0)
        error, message = _assert_same_placement(topo, {0: (1.0, 1.0)}, 0.0,
                                                5.0)
        assert error is LPError and "die bounds" in message

    def test_only_disconnected_switches(self):
        # No pair at all: an LP of bounded, cost-free switch coordinates.
        topo = Topology(frequency_mhz=400.0, width_bits=32)
        topo.add_switch(0)
        topo.add_switch(1)
        objective, positions = _assert_same_placement(topo, {}, 4.0, 6.0)
        assert objective == 0.0
        assert positions == [(2.0, 3.0), (2.0, 3.0)]

    def test_zero_and_tied_loads(self):
        topo = Topology(frequency_mhz=400.0, width_bits=32)
        for layer in (0, 0, 1):
            topo.add_switch(layer)
        for core, switch in ((0, 0), (1, 0), (2, 1), (3, 2)):
            topo.attach_core(core, switch, 0)
        topo.add_switch_link(0, 1)
        topo.add_switch_link(2, 1)
        topo.add_switch_link(1, 2)
        for link, load in zip(topo.links, [0.0, 0.1, 0.2, 0.3] * 4):
            link.load_mbps = load
        centres = {0: (0.0, 0.0), 1: (4.0, 0.0), 2: (2.0, 3.0), 3: (0.0, 4.0)}
        _assert_same_placement(topo, centres, 5.0, 5.0)


# --------------------------------------------------------------------------
# what reaches linprog, for every LP of two d26_media syntheses
# --------------------------------------------------------------------------

def _recorded_problems(config):
    """The inputs of every placement LP of one d26_media synthesis."""
    problems = []
    real = pipeline.optimise_switch_positions

    def record(topo, centres, width, height):
        problems.append((copy.deepcopy(topo), dict(centres), width, height))
        return real(topo, centres, width, height)

    bench = get_benchmark("d26_media")
    patched = pytest.MonkeyPatch()
    patched.setattr(pipeline, "optimise_switch_positions", record)
    try:
        run_synthesis(FlowContext.build(
            bench.core_spec_3d, bench.comm_spec, None, config
        ), jobs=1)
    finally:
        patched.undo()
    return problems


def _linprog_input(optimise, problem):
    """The keyword arguments ``linprog`` receives for one placement LP."""
    seen = []
    real = scipy_backend.linprog

    def record(**kwargs):
        seen.append(kwargs)
        return real(**kwargs)

    patched = pytest.MonkeyPatch()
    patched.setattr(scipy_backend, "linprog", record)
    try:
        topo, centres, width, height = problem
        optimise(copy.deepcopy(topo), centres, width, height)
    finally:
        patched.undo()
    (kwargs,) = seen
    return kwargs


def _assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("phase", ["auto", "phase2"])
def test_d26_media_lps_reach_linprog_unchanged(phase):
    problems = _recorded_problems(SynthesisConfig(phase=phase))
    assert len(problems) >= 5
    for problem in problems:
        live = _linprog_input(optimise_switch_positions, problem)
        naive = _linprog_input(naive_optimise_switch_positions, problem)
        assert sorted(live) == sorted(naive)
        _assert_same_array(live["c"], naive["c"])
        a_live, a_naive = csc_array(live["A_ub"]), csc_array(naive["A_ub"])
        assert a_live.shape == a_naive.shape
        for part in ("indptr", "indices", "data"):
            _assert_same_array(getattr(a_live, part), getattr(a_naive, part))
        _assert_same_array(live["b_ub"], naive["b_ub"])
        assert live["A_eq"] is naive["A_eq"] is None
        assert live["b_eq"] is naive["b_eq"] is None
        assert live["bounds"] == naive["bounds"]
        _assert_same_placement(*problem)
