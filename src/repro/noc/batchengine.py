"""K replications of one topology: the solo engine once per seed.

:func:`simulate_batch` runs :func:`repro.noc.simengine.simulate` for each
seed in order, so every replication's
:class:`~repro.noc.simulator.SimulationStats` and per-cycle trace are
those of a solo run at that seed, and therefore of the frozen
:mod:`repro.noc.reference` loop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import SynthesisError
from repro.noc import simengine
from repro.noc.scenarios import ScenarioSpec, TrafficScenario

# Kept only because ``perfbench/tracer.py`` wraps this name here.
from repro.noc.scenarios import build_schedule  # noqa: F401

#: Always 0; kept only because ``perfbench/run.py`` reads it.
DIRTY_REDOS = 0


def simulate_batch(
    sim,
    *,
    cycles: int,
    warmup: int,
    injection_scale: float,
    seeds: Sequence[int],
    scenario: object = None,
    drain_limit: Optional[int] = None,
    traces: Optional[Sequence[list]] = None,
):
    """Run one replication per seed; returns one stats object per seed.

    ``sim`` is a validated :class:`~repro.noc.simulator.WormholeSimulator`.
    ``scenario`` is either one :data:`~repro.noc.scenarios.ScenarioSpec`
    applied to every replication or a sequence of ``len(seeds)`` specs.
    ``traces``, when given, is a sequence of ``len(seeds)`` lists each
    collecting that replication's events as a solo run's ``trace`` would.
    """
    seeds = list(seeds)
    scenarios = _per_replication_scenarios(scenario, len(seeds))
    if traces is not None and len(traces) != len(seeds):
        raise SynthesisError(
            f"got {len(traces)} trace sinks for {len(seeds)} replications"
        )
    return [
        simengine.simulate(
            sim, seed=seed, cycles=cycles, warmup=warmup,
            injection_scale=injection_scale, scenario=scenarios[k],
            drain_limit=drain_limit,
            trace=None if traces is None else traces[k],
        )
        for k, seed in enumerate(seeds)
    ]


def _per_replication_scenarios(scenario, K: int) -> List[ScenarioSpec]:
    """Resolve the scenario argument to one spec per replication."""
    if isinstance(scenario, (list, tuple)):
        if len(scenario) != K:
            raise SynthesisError(
                f"got {len(scenario)} scenarios for {K} replications"
            )
        return list(scenario)
    if scenario is None or isinstance(scenario, (str, TrafficScenario)):
        return [scenario] * K
    raise SynthesisError(
        f"scenario must be a spec or a sequence of specs, got {scenario!r}"
    )
