"""``run_batch`` vs solo engine vs frozen reference.

The contract of :meth:`WormholeSimulator.run_batch`: for every replication
in a batch, the returned :class:`SimulationStats` *and* the per-cycle
``("deliver"|"eject", cycle, link, pid)`` trace are bit-identical to a solo
:meth:`WormholeSimulator.run` at that seed — and, transitively, to the
frozen :class:`ReferenceWormholeSimulator`. Per replication, nothing may
depend on K: not the stats, not the trace, not the drain accounting of a
sibling that saturates or finishes early.

The harness has three layers:

* a trajectory-identity matrix over topology x scenario x packet length x
  buffer depth x (injection scale, drain limit), batch against solo, plus
  a three-way leg that folds in the frozen naive reference;
* Hypothesis properties: permuting the replication axis permutes results,
  splitting one batch into two merges to the same campaign outcome, and a
  replication's result never depends on its siblings (K-independence);
* drain-limit asymmetry regressions: one saturated replication hitting
  its drain limit keeps solo-identical lost-packet accounting and cannot
  stretch or truncate its siblings' drain phases.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from _simtopo import contended_topology, cross_contended_topology

from repro.noc.reference import ReferenceWormholeSimulator
from repro.noc.simulator import WormholeSimulator


def _solo(topo, seed, *, L=4, depth=4, cycles=400, warmup=100, scale=1.0,
          scenario=None, drain=None, sim_cls=WormholeSimulator):
    trace = []
    stats = sim_cls(
        topo, seed=seed, packet_length_flits=L, buffer_depth=depth
    ).run(cycles=cycles, warmup=warmup, injection_scale=scale,
          scenario=scenario, drain_limit=drain, trace=trace)
    return stats, trace


def _batch(topo, seeds, *, L=4, depth=4, cycles=400, warmup=100, scale=1.0,
           scenario=None, drain=None):
    traces = [[] for _ in seeds]
    sim = WormholeSimulator(
        topo, seed=0, packet_length_flits=L, buffer_depth=depth
    )
    stats = sim.run_batch(
        list(seeds), cycles=cycles, warmup=warmup, injection_scale=scale,
        scenario=scenario, drain_limit=drain, traces=traces,
    )
    return stats, traces


class TestBatchTrajectoryIdentity:
    """Batch output is the tuple of solo outputs, trajectory for trajectory."""

    @pytest.mark.parametrize("topo_factory", [
        contended_topology, cross_contended_topology,
    ], ids=["contended", "cross"])
    @pytest.mark.parametrize("scenario", [None, "hotspot", "bursty"])
    @pytest.mark.parametrize("L,depth", [(1, 1), (4, 4), (3, 2)])
    def test_matrix_vs_solo(self, topo_factory, scenario, L, depth):
        topo = topo_factory()
        seeds = list(range(5))
        for scale, drain in [(0.3, None), (2.0, None), (2.0, 0), (2.5, 7)]:
            kw = dict(L=L, depth=depth, scale=scale,
                      scenario=scenario, drain=drain)
            batch_stats, batch_traces = _batch(topo, seeds, **kw)
            for i, seed in enumerate(seeds):
                solo_stats, solo_trace = _solo(topo, seed, **kw)
                assert batch_stats[i] == solo_stats, (scale, drain, seed)
                assert batch_traces[i] == solo_trace, (scale, drain, seed)

    @pytest.mark.parametrize("scale,scenario,drain", [
        (0.3, None, None),
        (2.0, "hotspot", 7),
        (1.5, "bursty", None),
        (2.0, None, 0),
    ])
    def test_three_way_with_frozen_reference(
        self, contended_topo, scale, scenario, drain
    ):
        seeds = [0, 1, 2]
        kw = dict(scale=scale, scenario=scenario, drain=drain)
        batch_stats, batch_traces = _batch(contended_topo, seeds, **kw)
        for i, seed in enumerate(seeds):
            eng_stats, eng_trace = _solo(contended_topo, seed, **kw)
            ref_stats, ref_trace = _solo(
                contended_topo, seed, sim_cls=ReferenceWormholeSimulator, **kw
            )
            assert batch_stats[i] == eng_stats == ref_stats
            assert batch_traces[i] == eng_trace == ref_trace

    def test_ragged_early_finish(self, contended_topo):
        """Replications under wildly different loads finish draining at
        different cycles; the early finishers must freeze exactly where
        their solo runs end while heavier siblings keep simulating."""
        seeds = [0, 1, 2]
        per_rep = ["scaled:0.05", None, "scaled:3"]
        batch_stats, batch_traces = _batch(
            contended_topo, seeds, scale=1.0, scenario=per_rep,
            cycles=800, warmup=100,
        )
        finish = set()
        for i, (seed, scen) in enumerate(zip(seeds, per_rep)):
            solo_stats, solo_trace = _solo(
                contended_topo, seed, scale=1.0, scenario=scen,
                cycles=800, warmup=100,
            )
            assert batch_stats[i] == solo_stats
            assert batch_traces[i] == solo_trace
            finish.add(solo_stats.drain_cycles)
        assert len(finish) > 1, "loads did not produce ragged finishes"

    def test_k1_degenerates_to_solo(self, contended_topo):
        batch_stats, batch_traces = _batch(contended_topo, [3], scale=2.0)
        solo_stats, solo_trace = _solo(contended_topo, 3, scale=2.0)
        assert batch_stats == [solo_stats]
        assert batch_traces == [solo_trace]

    def test_empty_batch(self, contended_topo):
        sim = WormholeSimulator(contended_topo, seed=0)
        assert sim.run_batch([], cycles=200, warmup=0) == []


# --- Hypothesis properties ---------------------------------------------------
#
# Fixed, fast configuration: the property is about the replication axis,
# not the traffic, so one moderately contended operating point suffices.

_PROP_TOPO = contended_topology()
_PROP_KW = dict(cycles=300, warmup=50, scale=1.5)


@functools.lru_cache(maxsize=None)
def _prop_solo(seed):
    stats, trace = _solo(_PROP_TOPO, seed, **_PROP_KW)
    return stats, tuple(trace)


def _prop_batch(seeds):
    stats, traces = _batch(_PROP_TOPO, list(seeds), **_PROP_KW)
    return stats, [tuple(t) for t in traces]


_seed_lists = st.lists(
    st.integers(0, 7), min_size=1, max_size=5, unique=True
)


class TestReplicationAxisProperties:
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_permuting_seeds_permutes_results(self, data):
        seeds = data.draw(_seed_lists)
        perm = data.draw(st.permutations(seeds))
        stats_a, traces_a = _prop_batch(seeds)
        stats_b, traces_b = _prop_batch(perm)
        by_seed_a = dict(zip(seeds, zip(stats_a, traces_a)))
        by_seed_b = dict(zip(perm, zip(stats_b, traces_b)))
        assert by_seed_a == by_seed_b

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_split_batches_merge_to_same_campaign(self, data):
        """Chunking K seeds as K1 + K2 — what ``batch=`` does to a
        campaign's seed list — yields the same flattened results as one
        batch, so the campaign outcome is chunking-independent."""
        seeds = data.draw(_seed_lists)
        cut = data.draw(st.integers(0, len(seeds)))
        whole_stats, whole_traces = _prop_batch(seeds)
        head_stats, head_traces = _prop_batch(seeds[:cut])
        tail_stats, tail_traces = _prop_batch(seeds[cut:])
        assert head_stats + tail_stats == whole_stats
        assert head_traces + tail_traces == whole_traces

    @settings(max_examples=12, deadline=None)
    @given(seeds=_seed_lists)
    def test_replication_never_depends_on_k(self, seeds):
        stats, traces = _prop_batch(seeds)
        for i, seed in enumerate(seeds):
            solo_stats, solo_trace = _prop_solo(seed)
            assert stats[i] == solo_stats
            assert traces[i] == solo_trace


class TestDrainAsymmetry:
    """A replication that saturates and hits its drain limit is an island:
    its lost-packet accounting matches solo, and its siblings' drain
    phases are neither extended nor cut short by sharing a batch."""

    _PER_REP = ["scaled:0.2", "scaled:8", "scaled:0.2"]

    def _run(self, topo, drain):
        seeds = [0, 1, 2]
        kw = dict(scale=1.0, scenario=self._PER_REP, drain=drain,
                  cycles=600, warmup=100)
        batch_stats, _ = _batch(topo, seeds, **kw)
        solos = [
            _solo(topo, seed, scale=1.0, scenario=scen, drain=drain,
                  cycles=600, warmup=100)[0]
            for seed, scen in zip(seeds, self._PER_REP)
        ]
        return batch_stats, solos

    def test_saturated_replication_keeps_solo_drain_accounting(
        self, contended_topo
    ):
        drain = 40
        batch_stats, solos = self._run(contended_topo, drain)
        # The middle replication saturates, exhausts its drain budget and
        # loses packets — all exactly as its solo run does.
        assert solos[1].drain_cycles == drain
        assert solos[1].packets_delivered < solos[1].packets_injected
        assert batch_stats[1] == solos[1]
        assert batch_stats[1].drain_cycles == drain

    def test_saturated_sibling_cannot_stretch_or_truncate_drains(
        self, contended_topo
    ):
        batch_stats, solos = self._run(contended_topo, 40)
        for got, want in zip(batch_stats, solos):
            assert got.drain_cycles == want.drain_cycles
            assert got == want
        # The light replications drain fully well before the saturated
        # sibling's budget expires: their drains must stay short.
        assert batch_stats[0].drain_cycles < 40
        assert batch_stats[0].delivery_ratio == 1.0

    def test_drain_limit_zero_cuts_every_replication_alike(
        self, contended_topo
    ):
        batch_stats, solos = self._run(contended_topo, 0)
        assert [s.drain_cycles for s in batch_stats] == [0, 0, 0]
        assert batch_stats == solos
