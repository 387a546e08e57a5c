"""Synthesis configuration: every knob of the Fig. 3 flow in one place.

Defaults follow the paper's experimental setup: 32-bit links, 400 MHz,
``max_ill`` = 25 (Sec. VIII-A), θ swept 1→15 in steps of 3 (Sec. V-A),
SOFT_INF ten times the maximum flow cost and ``soft_max_ill`` two to three
links under ``max_ill`` (Sec. VI).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

from repro.errors import SpecError
from repro.floorplan.inserter import MAX_SEARCH_STEPS
from repro.spec.core_spec import is_finite_real, is_integer

PHASES = ("auto", "phase1", "phase2")
LAYER_MODES = ("mean", "majority")
OBJECTIVES = ("power", "latency")
FLOW_ORDERS = ("bandwidth_desc", "bandwidth_asc", "spec")
FLOORPLANNERS = ("custom", "constrained")

#: The allowed values of each enumerated field.
CHOICES = {
    "objective": OBJECTIVES,
    "phase": PHASES,
    "switch_layer_mode": LAYER_MODES,
    "flow_order": FLOW_ORDERS,
    "floorplanner": FLOORPLANNERS,
}


@dataclass(frozen=True)
class SynthesisConfig:
    """Configuration of one synthesis run.

    Attributes:
        frequency_mhz: NoC operating frequency for this architectural point.
        link_width_bits: Flit / link data width.
        alpha: PG weight parameter α of Def. 3 (1.0 = bandwidth-only).
        objective: "power" or "latency" — which metric ranks design points.
        max_ill: Maximum inter-layer (TSV) links per adjacent-layer boundary.
        adjacent_layer_links_only: Forbid switch-to-switch links spanning
            two or more layers (the hard rule of Algorithm 3, step 3). Core
            to switch links may span multiple layers in Phase 1 regardless.
        phase: "phase1", "phase2", or "auto" (Phase 1 first; fall back to
            Phase 2 for switch counts Phase 1 could not satisfy — Sec. IV).
        theta_min/theta_max/theta_step: SPG scaling sweep of Algorithm 1.
        use_soft_thresholds: Enable the SOFT_INF mechanism of Algorithm 3.
        soft_ill_margin: soft_max_ill = max_ill - margin.
        soft_switch_margin: soft_max_switch_size = max size - margin.
        soft_inf_factor: SOFT_INF = factor x the maximum single-flow cost.
        switch_layer_mode: Switch layer from its cores — "mean" (Step 7 of
            Algorithm 1) or "majority" (the alternative the paper mentions).
        utilisation_cap: Fraction of link capacity usable by traffic.
        deadlock_retries: Route retries (banning edges) when a path would
            close a CDG cycle.
        flow_order: Order in which flows are routed — "bandwidth_desc"
            (largest first, the standard greedy of [16] and the default),
            "bandwidth_asc", or "spec" (communication-spec order). Exposed
            for the routing-order ablation.
        allow_indirect_switches: Permit adding core-less switches when
            switch-size constraints make routing infeasible (Sec. VI).
        switch_count_range: Optional (min, max) total-switch-count sweep
            bounds; None sweeps the full 1..n range of Algorithm 1.
        seed: Determinism seed (floorplanner annealing, mesh-baseline
            mapping). Graph partitioning is deterministic and seed-free.
        search_radius_mm / grid_step_mm: Custom insertion routine knobs;
            both finite and positive, with at most
            :data:`~repro.floorplan.inserter.MAX_SEARCH_STEPS` grid steps
            per side (``search_radius_mm / grid_step_mm``).
        floorplanner: "custom" (the paper's routine) or "constrained"
            (the standard-floorplanner baseline of Sec. VIII-D).
    """

    frequency_mhz: float = 400.0
    link_width_bits: int = 32
    alpha: float = 0.7
    objective: str = "power"
    max_ill: int = 25
    adjacent_layer_links_only: bool = True
    phase: str = "auto"
    theta_min: float = 1.0
    theta_max: float = 15.0
    theta_step: float = 3.0
    use_soft_thresholds: bool = True
    soft_ill_margin: int = 2
    soft_switch_margin: int = 2
    soft_inf_factor: float = 10.0
    switch_layer_mode: str = "mean"
    utilisation_cap: float = 1.0
    deadlock_retries: int = 8
    flow_order: str = "bandwidth_desc"
    allow_indirect_switches: bool = True
    switch_count_range: Optional[Tuple[int, int]] = None
    seed: int = 0
    search_radius_mm: float = 1.0
    grid_step_mm: float = 0.1
    floorplanner: str = "custom"

    def __post_init__(self) -> None:
        # Types first: a string, a NaN or a 2.5 where a finite number or a
        # count belongs fails here, not deep inside a synthesis run.
        for spec in fields(self):
            value = getattr(self, spec.name)
            wanted, ok = _TYPE_CHECKS.get(spec.type, (None, None))
            if ok is not None and not ok(value):
                raise SpecError(f"{spec.name} must be {wanted}, got {value!r}")
            allowed = CHOICES.get(spec.name)
            if allowed is not None and value not in allowed:
                raise SpecError(
                    f"{spec.name} must be one of {allowed}, got {value!r}"
                )
        for knob in ("frequency_mhz", "link_width_bits", "theta_min",
                     "theta_step", "search_radius_mm", "grid_step_mm"):
            value = getattr(self, knob)
            if value <= 0:
                raise SpecError(f"{knob} must be positive, got {value}")
        if self.search_radius_mm / self.grid_step_mm > MAX_SEARCH_STEPS:
            raise SpecError(
                f"search_radius_mm / grid_step_mm must be at most "
                f"{MAX_SEARCH_STEPS} (grid steps per side of the inserter's "
                f"search square), got {self.search_radius_mm} / "
                f"{self.grid_step_mm}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise SpecError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.max_ill < 0:
            raise SpecError(f"max_ill must be >= 0, got {self.max_ill}")
        if self.theta_max < self.theta_min:
            raise SpecError("theta_max must be >= theta_min")
        if not 0 < self.utilisation_cap <= 1.0:
            raise SpecError(
                f"utilisation_cap must be in (0, 1], got {self.utilisation_cap}"
            )
        pair = self.switch_count_range
        if pair is not None and not (
            isinstance(pair, (tuple, list)) and len(pair) == 2
            and all(is_integer(v) for v in pair) and 1 <= pair[0] <= pair[1]
        ):
            raise SpecError(
                "switch_count_range must be a (min, max) pair of integers "
                f"with 1 <= min <= max, got {pair!r}"
            )

    def with_(self, **kwargs) -> "SynthesisConfig":
        """A modified copy (convenience for sweeps)."""
        return replace(self, **kwargs)

    def theta_values(self):
        """The θ sweep sequence of Algorithm 1 (Steps 11-19)."""
        theta = self.theta_min
        while theta <= self.theta_max + 1e-9:
            yield theta
            theta += self.theta_step


def field_problem(name: str, value) -> Optional[str]:
    """Why ``value`` cannot be the ``name`` field of a configuration (the
    message ``SynthesisConfig().with_(name=value)`` raises), or ``None``:
    the one judge sweep grids and campaign specs ask."""
    try:
        SynthesisConfig().with_(**{name: value})
    except SpecError as exc:
        return str(exc)
    return None


#: What a field of each declared type must hold (the annotations are
#: strings under ``from __future__ import annotations``).
_TYPE_CHECKS = {
    "bool": ("a bool", lambda value: isinstance(value, bool)),
    "int": ("an integer", is_integer),
    "float": ("a finite number", is_finite_real),
}
