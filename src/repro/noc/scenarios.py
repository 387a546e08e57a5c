"""Traffic-scenario library for the wormhole simulator.

A *scenario* decides, cycle by cycle and flow by flow, whether a new packet
enters the network. Scenarios are pure injection processes: they never touch
routing, arbitration or flow control, so the same synthesized topology can be
stressed under several traffic shapes:

* :class:`BernoulliScenario` — the classic per-flow Bernoulli process used by
  the original simulator: every cycle each flow independently injects with
  its specification-derived probability.
* :class:`HotspotScenario` — flows destined to one "hot" core inject at a
  boosted rate while the rest keep their specification rate, concentrating
  contention on the hot core's switch and ejection link.
* :class:`BurstyScenario` — a per-flow Markov on–off (Gilbert) process: the
  same mean offered load as Bernoulli, delivered in bursts. Burstiness grows
  queueing latency even at identical average load — exactly the behaviour the
  analytic zero-load model cannot see.
* :class:`ScaledScenario` — the whole specification uniformly scaled by a
  factor (an offered-load knob orthogonal to the simulator's
  ``injection_scale`` argument).

Determinism contract
--------------------

All randomness is consumed while *building the injection schedule*, before
the first simulated cycle, in one well-defined order per scenario class:
Bernoulli-style scenarios sample geometric inter-arrival gaps flow-major
(one draw per *arrival*, not per cycle — the same process, far fewer
draws); the bursty chain draws cycle-major per active flow. Both the
array-based engine (:mod:`repro.noc.simengine`, which also runs every
replication of a batch) and the frozen naive reference
(:mod:`repro.noc.reference`) build their schedule through the same
:meth:`TrafficScenario.schedule` call on the same freshly-seeded
generator, which is what keeps their trajectories bit-identical across
every scenario.

Scenario objects are frozen dataclasses built from plain numbers, so they
pickle untouched across the :class:`~repro.engine.tasks.SimulationTask`
process boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SynthesisError

Flow = Tuple[int, int]
#: One row per cycle; each row lists the indices (into the sorted flow list)
#: of the flows injecting a packet that cycle, in ascending order.
Schedule = List[List[int]]


class TrafficScenario:
    """Base class: a deterministic injection-schedule builder."""

    name = "scenario"

    def schedule(
        self,
        flows: Sequence[Flow],
        probs: Sequence[float],
        cycles: int,
        rng,
    ) -> Schedule:
        """Build the per-cycle injection schedule.

        Args:
            flows: The sorted ``(src_core, dst_core)`` flow list.
            probs: Per-flow injection probability per cycle (specification
                rate times the caller's ``injection_scale``), aligned with
                ``flows``.
            cycles: Number of injection cycles.
            rng: A freshly seeded :class:`random.Random`; every draw the
                scenario makes comes from here, in a fixed order.
        """
        raise NotImplementedError

    def label(self) -> str:
        """Short human-readable tag for tables and reports."""
        return self.name


def _bernoulli_schedule(probs: Sequence[float], cycles: int, rng) -> Schedule:
    """Independent per-cycle, per-flow injections, sampled per arrival.

    Equivalent to drawing ``rng.random() < p`` for every (cycle, flow)
    pair, but via geometric inter-arrival gaps (inverse transform), so the
    draw count scales with the number of *packets* instead of
    ``cycles × flows``. Flow-major sampling appends ascending flow indices
    to each row, preserving the within-cycle injection order.
    """
    sched: Schedule = [[] for _ in range(cycles)]
    rand = rng.random
    log = math.log
    for fi, p in enumerate(probs):
        if p <= 0.0:
            continue
        if p >= 1.0:
            for row in sched:
                row.append(fi)
            continue
        # log1p keeps the denominator non-zero even when p is so small
        # that 1.0 - p rounds to 1.0 (log(1.0 - p) would underflow to 0).
        inv = 1.0 / math.log1p(-p)  # ~ -1/p for small p
        if not math.isfinite(inv):
            # p below ~1e-308 (denormal): the reciprocal overflows and the
            # expected inter-arrival gap exceeds any representable horizon.
            continue

        def gap() -> int:
            # Failures before the first success are geometric on {0, 1,
            # ...}; 1 - rand() lies in (0, 1], keeping log() finite. For
            # tiny (but normal) p the product can still overflow to inf —
            # or hit 0 * inf = nan — so anything not provably inside the
            # horizon clamps to `cycles`: "no arrival on this schedule".
            g = log(1.0 - rand()) * inv
            return int(g) if g < cycles else cycles

        c = gap()
        while c < cycles:
            sched[c].append(fi)
            c += 1 + gap()
    return sched


@dataclass(frozen=True)
class BernoulliScenario(TrafficScenario):
    """The specification-rate Bernoulli process (the historical default)."""

    name = "bernoulli"

    def schedule(self, flows, probs, cycles, rng) -> Schedule:
        return _bernoulli_schedule(probs, cycles, rng)


@dataclass(frozen=True)
class HotspotScenario(TrafficScenario):
    """Flows into one hot core inject at ``boost`` times their spec rate.

    Attributes:
        hotspot_core: Destination core to overload; ``None`` picks the core
            receiving the most flows (ties break to the lowest core id).
        boost: Multiplier on the hot flows' injection probability.
    """

    name = "hotspot"
    hotspot_core: Optional[int] = None
    boost: float = 4.0

    def __post_init__(self):
        if self.boost <= 0:
            raise SynthesisError(
                f"hotspot boost must be positive, got {self.boost}"
            )

    def pick_hotspot(self, flows: Sequence[Flow]) -> int:
        """The hot destination core (explicit, or busiest by flow count)."""
        if self.hotspot_core is not None:
            return self.hotspot_core
        counts: Dict[int, int] = {}
        for _src, dst in flows:
            counts[dst] = counts.get(dst, 0) + 1
        if not counts:
            raise SynthesisError("no flows to pick a hotspot from")
        return max(sorted(counts), key=lambda core: counts[core])

    def schedule(self, flows, probs, cycles, rng) -> Schedule:
        return _bernoulli_schedule(
            self.bernoulli_probs(flows, probs), cycles, rng
        )

    def bernoulli_probs(self, flows, probs):
        """Per-flow rates with the hot core's flows boosted."""
        hot = self.pick_hotspot(flows)
        return [
            p * self.boost if flows[fi][1] == hot else p
            for fi, p in enumerate(probs)
        ]

    def label(self) -> str:
        core = "auto" if self.hotspot_core is None else self.hotspot_core
        return f"hotspot({core},x{self.boost:g})"


@dataclass(frozen=True)
class BurstyScenario(TrafficScenario):
    """Markov on–off injection with the same mean load as Bernoulli.

    Each flow is an independent two-state chain. In the ON state it injects
    with probability ``min(1, peak * p)`` per cycle; in OFF it is silent.
    The ON-dwell time is geometric with mean ``mean_burst_cycles``, and the
    OFF→ON rate is chosen so the stationary ON fraction restores the flow's
    mean rate ``p`` — so bursty and Bernoulli offer the *same* average load,
    differently clumped. When the chain cannot refill fast enough (the
    required OFF→ON probability would exceed 1 — a flow near link
    capacity), the ON-state rate is raised, degenerating to an always-ON
    flow at rate ``min(1, p)`` in the limit: near-saturated flows have no
    room to burst, but the offered mean load is preserved in every case.

    Draw order per flow ``fi`` (after one initial-state draw per flow): each
    cycle one state-transition draw, then — only when ON — one injection
    draw. Flows with zero probability make no draws at all.
    """

    name = "bursty"
    mean_burst_cycles: float = 8.0
    peak: float = 4.0

    def __post_init__(self):
        if self.mean_burst_cycles < 1.0:
            raise SynthesisError(
                f"mean burst length must be >= 1 cycle, got "
                f"{self.mean_burst_cycles}"
            )
        if self.peak <= 0:
            raise SynthesisError(f"peak must be positive, got {self.peak}")

    def schedule(self, flows, probs, cycles, rng) -> Schedule:
        n = len(probs)
        rand = rng.random
        beta = 1.0 / self.mean_burst_cycles  # ON -> OFF
        p_on: List[float] = [0.0] * n
        stationary: List[float] = [0.0] * n  # stationary ON fraction
        alpha: List[float] = [0.0] * n       # OFF -> ON
        always_on = [False] * n
        active = [False] * n                 # p > 0: participates in draws
        for fi, p in enumerate(probs):
            if p <= 0.0:
                continue
            active[fi] = True
            on = min(1.0, self.peak * p)
            if on <= p:
                # No room above the mean rate: the flow stays ON.
                always_on[fi] = True
                p_on[fi] = min(1.0, p)
                stationary[fi] = 1.0
                continue
            pi_on = p / on  # < 1 here
            alpha_req = beta * pi_on / (1.0 - pi_on)
            if alpha_req > 1.0:
                # OFF->ON probability cannot exceed 1: raise the ON rate
                # instead, so the alpha = 1 chain (stationary ON fraction
                # 1 / (1 + beta)) still offers exactly mean load p.
                on = p * (1.0 + beta)
                if on >= 1.0:
                    always_on[fi] = True
                    p_on[fi] = min(1.0, p)
                    stationary[fi] = 1.0
                    continue
                alpha_req = 1.0
                pi_on = 1.0 / (1.0 + beta)
            p_on[fi] = on
            stationary[fi] = pi_on
            alpha[fi] = alpha_req

        # Initial states: one stationary draw per active flow, flow order.
        state = [False] * n
        for fi in range(n):
            if not active[fi]:
                continue
            if always_on[fi]:
                state[fi] = True
            else:
                state[fi] = rand() < stationary[fi]

        sched: Schedule = []
        for _ in range(cycles):
            row: List[int] = []
            for fi in range(n):
                if not active[fi]:
                    continue
                if not always_on[fi]:
                    if state[fi]:
                        if rand() < beta:
                            state[fi] = False
                    elif rand() < alpha[fi]:
                        state[fi] = True
                if state[fi] and rand() < p_on[fi]:
                    row.append(fi)
            sched.append(row)
        return sched

    def label(self) -> str:
        return f"bursty(b{self.mean_burst_cycles:g},x{self.peak:g})"


@dataclass(frozen=True)
class ScaledScenario(TrafficScenario):
    """Every flow's specification rate uniformly scaled by ``factor``."""

    name = "scaled"
    factor: float = 1.0

    def __post_init__(self):
        if self.factor < 0:
            raise SynthesisError(
                f"scale factor must be non-negative, got {self.factor}"
            )

    def schedule(self, flows, probs, cycles, rng) -> Schedule:
        return _bernoulli_schedule(
            self.bernoulli_probs(flows, probs), cycles, rng
        )

    def bernoulli_probs(self, flows, probs):
        """Per-flow rates scaled by ``factor``."""
        return [p * self.factor for p in probs]

    def label(self) -> str:
        return f"scaled(x{self.factor:g})"


#: Registry used by :func:`make_scenario` and the CLI ``sim`` subcommand.
SCENARIOS = {
    "bernoulli": BernoulliScenario,
    "hotspot": HotspotScenario,
    "bursty": BurstyScenario,
    "scaled": ScaledScenario,
}

ScenarioSpec = Union[None, str, TrafficScenario]


def make_scenario(spec: ScenarioSpec) -> TrafficScenario:
    """Resolve a scenario argument to a :class:`TrafficScenario` instance.

    Accepts ``None`` (the Bernoulli default), an existing scenario object,
    a bare name (``"hotspot"``), or a name with one numeric argument
    separated by a colon: ``"hotspot:3"`` (hot core id), ``"bursty:16"``
    (mean burst cycles), ``"scaled:1.5"`` (scale factor).
    """
    if spec is None:
        return BernoulliScenario()
    if isinstance(spec, TrafficScenario):
        return spec
    if not isinstance(spec, str):
        raise SynthesisError(
            f"scenario must be a name or TrafficScenario, got {spec!r}"
        )
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise SynthesisError(f"unknown scenario {name!r}; known: {known}")
    if not arg:
        return SCENARIOS[name]()
    try:
        if name == "hotspot":
            return HotspotScenario(hotspot_core=int(arg))
        if name == "bursty":
            return BurstyScenario(mean_burst_cycles=float(arg))
        if name == "scaled":
            return ScaledScenario(factor=float(arg))
    except ValueError:
        raise SynthesisError(f"could not parse scenario argument in {spec!r}")
    raise SynthesisError(f"scenario {name!r} takes no argument, got {spec!r}")


def build_schedule(
    scenario: ScenarioSpec,
    flows: Sequence[Flow],
    probs: Sequence[float],
    cycles: int,
    rng,
) -> Schedule:
    """Resolve ``scenario`` and build its injection schedule (validated)."""
    if len(flows) != len(probs):
        raise SynthesisError(
            f"got {len(flows)} flows but {len(probs)} probabilities"
        )
    sched = make_scenario(scenario).schedule(flows, probs, cycles, rng)
    if len(sched) != cycles:
        raise SynthesisError(
            f"scenario produced {len(sched)} rows for {cycles} cycles"
        )
    return sched
