"""Synthesis configuration: the knobs of the Fig. 3 flow a caller sets.

Defaults follow the paper's experimental setup: 32-bit links, 400 MHz,
``max_ill`` = 25 (Sec. VIII-A). The values the paper fixes as properties
of the tool are constants next to the one place that reads them:

* the θ sweep of Algorithm 1 (1→15 in steps of 3, Sec. V-A):
  :data:`repro.core.phase1.THETA_VALUES` and ``THETA_MAX``;
* SOFT_INF ten times the maximum flow cost, ``soft_max_ill`` and
  ``soft_max_switch_size`` two under their hard limits (Sec. VI), and the
  deadlock re-route budget: ``SOFT_INF_FACTOR``, ``SOFT_ILL_MARGIN``,
  ``SOFT_SWITCH_MARGIN`` and ``DEADLOCK_RETRIES`` in
  :mod:`repro.core.paths`, whose router also always keeps switch-to-switch
  links between adjacent layers (Algorithm 3, step 3), may use the whole
  link capacity and inserts indirect switches when port limits block a
  flow (Sec. VI);
* the search grid of the insertion routine (Sec. VII):
  ``SEARCH_RADIUS_MM`` and ``GRID_STEP_MM`` in
  :mod:`repro.core.pipeline`, handed to the floorplan inserters.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

from repro.errors import SpecError
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
        phase: "phase1", "phase2", or "auto" (Phase 1 first; fall back to
            Phase 2 for switch counts Phase 1 could not satisfy — Sec. IV).
        use_soft_thresholds: Enable the SOFT_INF mechanism of Algorithm 3.
        switch_layer_mode: Switch layer from its cores — "mean" (Step 7 of
            Algorithm 1) or "majority" (the alternative the paper mentions).
        flow_order: Order in which flows are routed — "bandwidth_desc"
            (largest first, the standard greedy of [16] and the default),
            "bandwidth_asc", or "spec" (communication-spec order). Exposed
            for the routing-order ablation.
        switch_count_range: Optional (min, max) total-switch-count sweep
            bounds; None sweeps the full 1..n range of Algorithm 1.
        seed: Determinism seed (floorplanner annealing, mesh-baseline
            mapping). Graph partitioning is deterministic and seed-free.
        floorplanner: "custom" (the paper's routine) or "constrained"
            (the standard-floorplanner baseline of Sec. VIII-D).
    """

    frequency_mhz: float = 400.0
    link_width_bits: int = 32
    alpha: float = 0.7
    objective: str = "power"
    max_ill: int = 25
    phase: str = "auto"
    use_soft_thresholds: bool = True
    switch_layer_mode: str = "mean"
    flow_order: str = "bandwidth_desc"
    switch_count_range: Optional[Tuple[int, int]] = None
    seed: int = 0
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
        for knob in ("frequency_mhz", "link_width_bits"):
            value = getattr(self, knob)
            if value <= 0:
                raise SpecError(f"{knob} must be positive, got {value}")
        if not 0.0 <= self.alpha <= 1.0:
            raise SpecError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.max_ill < 0:
            raise SpecError(f"max_ill must be >= 0, got {self.max_ill}")
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
