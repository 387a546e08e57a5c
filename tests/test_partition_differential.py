"""The k-way partitioner against its frozen oracle on generated graphs.

:func:`repro.graphs.partition.kway_min_cut` keeps attractions
incrementally, memoises stable block pairs and prunes its KL scans; the
frozen :func:`repro.engine.reference.naive_kway_min_cut` does none of that.
On every generated graph both must return the same blocks, and the oracle's
``seed`` (which the live partitioner no longer takes) must not matter.

Hypothesis draws 1-40 vertices, any block count, sparse to complete edge
sets given in either or both orientations, self-loops and zero weights,
isolated vertices, the 1e-6 all-pairs helper edges the layer partitioning
graph adds, and weights that are small integers, tied decimals
(0.1/0.2/0.3), near-ties around the 1e-12 rule, floats in [0, 2] or floats
up to 1e9. Divergences are rare among such graphs, so a few graphs on
which inexact variants of the shortcuts diverged are pinned as well. A
last test replays every partitioner call of one default d26_media
synthesis and of one Phase 2 synthesis. ``make fuzz`` runs the generated
test under the large ``fuzz`` profile (``tests/conftest.py``).
"""

import random
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.phase1 as phase1
import repro.core.phase2 as phase2
from repro.bench.registry import get_benchmark
from repro.core.config import SynthesisConfig
from repro.core.pipeline import FlowContext, run_synthesis
from repro.engine.reference import naive_kway_min_cut
from repro.graphs.partition import kway_min_cut

#: Weight draws: small integers (exact sums), three tied decimals whose
#: sums depend on their order, near-ties a hair above or below the KL scan's
#: 1e-12 tie rule, floats in [0, 2] and floats up to 1e9.
WEIGHTS = {
    "integer": lambda rng: float(rng.randint(0, 5)),
    "tied": lambda rng: rng.choice((0.1, 0.2, 0.3)),
    "near-tied": lambda rng: rng.choice((0.1, 0.2)) + rng.choice(
        (0.0, 5e-13, 2e-12, 3e-10)),
    "unit": lambda rng: rng.uniform(0.0, 2.0),
    "large": lambda rng: rng.uniform(0.0, 1e9),
}


def _graph(n, kind, density, seed, isolated=0, helper=False):
    """Edge weights on ``n`` vertices drawn from ``random.Random(seed)``:
    each ordered pair (self-loops included) gets a ``kind`` weight with
    probability ``density / 2``, except at ``isolated`` edge-free vertices,
    which get the LPG helper edges instead when ``helper`` is set."""
    rng = random.Random(seed)
    weight = WEIGHTS[kind]
    alone = set(rng.sample(range(n), isolated))
    weights = {}
    for i in range(n):
        for j in range(n):
            if {i, j} & alone or rng.random() >= density / 2:
                continue
            weights[(i, j)] = weight(rng)
    if helper:
        # The LPG helper: isolated vertices get 1e-6 x max edges to all.
        tiny = max(weights.values(), default=1.0) * 1e-6
        for i in sorted(alone):
            for j in range(n):
                if j != i:
                    weights.setdefault((min(i, j), max(i, j)), tiny)
    return weights


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 40))
    weights = _graph(
        n,
        draw(st.sampled_from(sorted(WEIGHTS))),
        draw(st.sampled_from((0.05, 0.15, 0.4, 1.0))),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(0, n // 3)),
        draw(st.booleans()),
    )
    return n, weights, draw(st.integers(1, n))


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs())
def test_generated_graphs_partition_like_the_oracle(graph):
    n, weights, k = graph
    blocks = kway_min_cut(n, weights, k)
    for seed in range(4):
        assert blocks == naive_kway_min_cut(n, weights, k, seed=seed)


#: ``_graph`` parameters plus ``k`` of graphs on which a plausible but
#: inexact shortcut was seen to diverge from the oracle (found by random
#: search; each is rare among generated graphs): summing attractions in
#: placement order rather than ascending order, dropping the scan's 1e-12
#: tie rule, pruning rows with a 1e-9 slack, and returning 0 for zero-cross
#: pairs whose smaller block has three vertices.
PINNED = [
    (14, "tied", 1.0, 2219433996, 0, False, 3),
    (4, "near-tied", 1.0, 4068976378, 0, True, 2),
    (8, "near-tied", 1.0, 3663126876, 1, False, 3),
    (15, "large", 1.0, 681019199, 4, False, 4),
]


@pytest.mark.parametrize("n, kind, density, seed, isolated, helper, k", PINNED)
def test_pinned_graphs_partition_like_the_oracle(
    n, kind, density, seed, isolated, helper, k
):
    weights = _graph(n, kind, density, seed, isolated, helper)
    assert kway_min_cut(n, weights, k) == naive_kway_min_cut(n, weights, k)


def _recorded_calls(monkeypatch, phase: str) -> List[tuple]:
    calls: List[tuple] = []

    def record(n, weights, k):
        calls.append((n, dict(weights), k))
        return kway_min_cut(n, weights, k)

    monkeypatch.setattr(phase1, "kway_min_cut", record)
    monkeypatch.setattr(phase2, "kway_min_cut", record)
    bench = get_benchmark("d26_media")
    run_synthesis(FlowContext.build(
        bench.core_spec_3d, bench.comm_spec, None, SynthesisConfig(phase=phase)
    ))
    return calls


def test_registry_synthesis_partitions_like_the_oracle(monkeypatch):
    """Every partitioner call of one default d26_media synthesis and of one
    Phase 2 synthesis, replayed through both partitioners."""
    for phase in ("auto", "phase2"):
        calls = _recorded_calls(monkeypatch, phase)
        assert calls
        for n, weights, k in calls:
            assert kway_min_cut(n, weights, k) == naive_kway_min_cut(
                n, weights, k
            )
