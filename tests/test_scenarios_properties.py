"""Hypothesis property tests for the traffic-scenario library.

Two contracts from ``repro.noc.scenarios``'s docstring are load-bearing for
the whole simulation stack:

* **schedule determinism** — equal (seed, scenario, flows, probs, cycles)
  must build the *identical* injection schedule, because the array engine
  and the frozen naive reference each rebuild the schedule independently
  and their trajectories are asserted bit-identical;
* **equal mean load** — hotspot and scaled are exactly Bernoulli at their
  effective (boosted/scaled) rates, and bursty offers the *same average
  load* as Bernoulli at every rate — differently clumped, never more or
  less traffic in expectation.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc.scenarios import (
    BernoulliScenario,
    BurstyScenario,
    HotspotScenario,
    ScaledScenario,
    build_schedule,
)
from repro.rng import make_rng

#: Flow lists are (src, dst) pairs over a small core id space.
flows_and_probs = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            min_size=n, max_size=n,
        ),
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n
        ),
    )
)

scenarios = st.one_of(
    st.just(BernoulliScenario()),
    st.builds(
        HotspotScenario,
        hotspot_core=st.one_of(st.none(), st.integers(0, 4)),
        boost=st.floats(0.5, 8.0, allow_nan=False),
    ),
    st.builds(
        BurstyScenario,
        mean_burst_cycles=st.floats(1.0, 20.0, allow_nan=False),
        peak=st.floats(0.5, 8.0, allow_nan=False),
    ),
    st.builds(ScaledScenario, factor=st.floats(0.0, 3.0, allow_nan=False)),
)


def _schedule(scenario, flows, probs, cycles, seed):
    # The engine/reference identity contract: all randomness comes from a
    # freshly seeded make_rng(seed, "wormhole") at schedule-build time.
    return build_schedule(
        scenario, flows, probs, cycles, make_rng(seed, "wormhole")
    )


class TestScheduleDeterminism:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(fp=flows_and_probs, scenario=scenarios,
           cycles=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    def test_equal_seed_equal_schedule(self, fp, scenario, cycles, seed):
        flows, probs = fp
        first = _schedule(scenario, flows, probs, cycles, seed)
        second = _schedule(scenario, flows, probs, cycles, seed)
        assert first == second

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(fp=flows_and_probs, scenario=scenarios,
           cycles=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    def test_schedule_shape(self, fp, scenario, cycles, seed):
        flows, probs = fp
        sched = _schedule(scenario, flows, probs, cycles, seed)
        assert len(sched) == cycles
        for row in sched:
            # Ascending unique in-range flow indices: the within-cycle
            # injection order both simulator cores rely on.
            assert row == sorted(set(row))
            assert all(0 <= fi < len(flows) for fi in row)


class TestTinyProbabilities:
    """Near-zero rates must produce (near-)empty schedules, never crash."""

    def test_denormal_p_no_overflow(self):
        sched = _schedule(BernoulliScenario(), [(0, 1)], [5e-324], 50, 0)
        assert sum(len(row) for row in sched) == 0

    def test_tiny_normal_p_no_overflow(self):
        # p ~ 2.3e-308: 1/log1p(-p) is finite (~ -4.3e307) but the gap
        # product log(1 - U) * inv overflows to inf for U >= ~0.984 —
        # regression for the OverflowError this used to raise.
        class HighDraws:
            def random(self):
                return 0.999999

        sched = build_schedule(
            BernoulliScenario(), [(0, 1)], [2.3e-308], 20, HighDraws()
        )
        assert sum(len(row) for row in sched) == 0

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(p=st.floats(5e-324, 1e-300, allow_nan=False),
           seed=st.integers(0, 2**32 - 1))
    def test_subnormal_band_never_crashes(self, p, seed):
        sched = _schedule(BernoulliScenario(), [(0, 1)], [p], 100, seed)
        assert len(sched) == 100


class TestExtremeProbabilities:
    """Certain (p >= 1, clipped), impossible (p = 0) and subnormal rates
    beside ordinary ones: certain flows inject every cycle, impossible and
    subnormal flows never do, and none of them draws from the generator,
    so every other flow's arrivals are those it would get alone."""

    @pytest.mark.parametrize("probs,drawless", [
        ([1.0, 0.0, 0.5, 2.0], {0, 1, 3}),
        ([1e-12, 0.9999, 0.0, 1.0], {2, 3}),
        ([5e-309, 0.5, 1e-300, 0.01], {0}),
    ])
    def test_degenerate_rates(self, probs, drawless):
        cycles = 400
        flows = [(0, fi + 1) for fi in range(len(probs))]
        rest = [fi for fi in range(len(probs)) if fi not in drawless]
        for seed in range(5):
            sched = _schedule(BernoulliScenario(), flows, probs, cycles, seed)
            for fi in drawless:
                hits = sum(fi in row for row in sched)
                assert hits == (cycles if probs[fi] >= 1.0 else 0)
            alone = _schedule(
                BernoulliScenario(), [flows[fi] for fi in rest],
                [probs[fi] for fi in rest], cycles, seed,
            )
            assert [[rest[i] for i in row] for row in alone] == [
                [fi for fi in row if fi not in drawless] for row in sched
            ], seed


class TestEqualMeanLoad:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(fp=flows_and_probs, boost=st.floats(0.5, 8.0, allow_nan=False),
           hot=st.integers(0, 4), cycles=st.integers(1, 150),
           seed=st.integers(0, 2**32 - 1))
    def test_hotspot_is_bernoulli_at_boosted_rates(
        self, fp, boost, hot, cycles, seed
    ):
        """At matched (boosted) per-flow rates, hotspot *is* Bernoulli:
        the schedules agree draw for draw, not just in expectation."""
        flows, probs = fp
        hotspot = HotspotScenario(hotspot_core=hot, boost=boost)
        matched = [
            p * boost if dst == hot else p
            for (_src, dst), p in zip(flows, probs)
        ]
        assert _schedule(hotspot, flows, probs, cycles, seed) == _schedule(
            BernoulliScenario(), flows, matched, cycles, seed
        )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(fp=flows_and_probs, factor=st.floats(0.0, 3.0, allow_nan=False),
           cycles=st.integers(1, 150), seed=st.integers(0, 2**32 - 1))
    def test_scaled_is_bernoulli_at_scaled_rates(
        self, fp, factor, cycles, seed
    ):
        flows, probs = fp
        scaled_probs = [p * factor for p in probs]
        assert _schedule(
            ScaledScenario(factor=factor), flows, probs, cycles, seed
        ) == _schedule(BernoulliScenario(), flows, scaled_probs, cycles, seed)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(p=st.floats(0.02, 0.6, allow_nan=False),
           mean_burst=st.floats(1.0, 16.0, allow_nan=False),
           seed=st.integers(0, 2**31 - 1))
    def test_bursty_offers_bernoulli_mean_load(self, p, mean_burst, seed):
        """Bursty clumps the traffic but keeps the average offered load:
        over a long horizon the injection count matches the Bernoulli
        expectation ``p * cycles`` within a generous statistical margin."""
        cycles = 30_000
        flows, probs = [(0, 1)], [p]
        sched = _schedule(
            BurstyScenario(mean_burst_cycles=mean_burst), flows, probs,
            cycles, seed,
        )
        injected = sum(len(row) for row in sched)
        expected = p * cycles
        # The on-off chain correlates successive cycles, inflating the
        # sample-mean deviation by roughly sqrt(2 * mean_burst); allow a
        # 8-sigma band on top of that so derandomized examples never flap.
        sigma = math.sqrt(cycles * p * (1.0 - p))
        margin = 8.0 * sigma * math.sqrt(2.0 * mean_burst)
        assert abs(injected - expected) <= margin

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(p=st.floats(0.02, 0.6, allow_nan=False),
           seed=st.integers(0, 2**31 - 1))
    def test_bernoulli_mean_matches_rate(self, p, seed):
        cycles = 30_000
        sched = _schedule(BernoulliScenario(), [(0, 1)], [p], cycles, seed)
        injected = sum(len(row) for row in sched)
        sigma = math.sqrt(cycles * p * (1.0 - p))
        assert abs(injected - p * cycles) <= 8.0 * sigma
