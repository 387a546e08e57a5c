"""Declarative campaign specs: validated dicts → engine task lists.

A campaign spec is a plain dict (JSON file, YAML file where available, or
built in code) naming a benchmark and the experiment to run over it::

    {"name": "freq-sweep", "kind": "sweep", "benchmark": "d26_media",
     "grid": {"frequencies_mhz": [200, 400, 800]},
     "config": {"max_ill": 25, "objective": "power"}}

    {"name": "traffic", "kind": "sim", "benchmark": "d26_media",
     "scenarios": ["bernoulli", "hotspot:3"], "seeds": [0, 1],
     "injection_scales": [0.1, 0.5], "cycles": 4000, "warmup": 400}

Two campaign kinds cover the paper's two experiment families:

* ``"sweep"`` — the Fig. 3 outer loop: a :class:`~repro.engine.grid.
  ParameterGrid` cross product of architectural points, one
  :class:`~repro.engine.tasks.SynthesisTask` per point;
* ``"sim"`` — the wormhole-simulation campaign: synthesize the best
  design point (store-backed, so a resumed campaign re-derives the
  *identical* topology from cache), then one
  :class:`~repro.engine.tasks.SimulationTask` per
  (scenario × injection scale × seed) — or, with ``"batch": K``, one
  :class:`~repro.engine.tasks.BatchSimulationTask` per seed chunk of up
  to ``K`` (one worker round-trip each). Per-replication results
  and store fingerprints are identical either way, so batched and solo
  campaigns resume through the same cache entries.

Validation philosophy matches :mod:`repro.spec.validate` but goes one step
further: :func:`validate_campaign` returns **every** problem it can find,
each tagged with the JSON path of the offending value
(``grid.frequencies_mhz[1]``, ``config.max_ill``, ``scenarios[0]``), so a
spec author fixes a file in one round trip instead of replaying
first-error whack-a-mole. :func:`CampaignSpec.from_dict` raises a
:class:`~repro.errors.CampaignSpecError` carrying the full issue list.

Compilation is deterministic: the same spec always expands to the same
task list in the same order, which is what lets the campaign service
resume a SIGKILLed job bit-identically from the content-addressed store.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import CampaignError, CampaignSpecError, ReproError

KINDS = ("sweep", "sim")
DIMS = ("3d", "2d")

#: Top-level spec keys, by applicability. ``grid``/``stages`` configure a
#: sweep; the traffic keys configure a sim campaign.
COMMON_KEYS = ("name", "kind", "benchmark", "dims", "config")
SWEEP_KEYS = ("grid", "stages")
SIM_KEYS = (
    "scenarios", "seeds", "injection_scales", "cycles", "warmup",
    "packet_length_flits", "batch",
)

GRID_KEYS = (
    "frequencies_mhz", "alphas", "link_widths_bits", "switch_count_ranges",
)


@dataclass(frozen=True)
class SpecIssue:
    """One problem in a campaign spec: where (JSON path) and what."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass(frozen=True)
class CampaignSpec:
    """A validated campaign: benchmark × experiment × parameter space.

    Construct via :meth:`from_dict` / :func:`load_campaign_file` — the
    constructor itself does not validate (it is the *output* of
    validation). ``config`` holds :class:`~repro.core.config.
    SynthesisConfig` overrides as a sorted tuple of ``(key, value)`` pairs
    so the spec stays hashable and fingerprintable.
    """

    name: str
    kind: str = "sweep"
    benchmark: str = "d26_media"
    dims: str = "3d"
    config: Tuple[Tuple[str, Any], ...] = ()
    # sweep
    grid: Tuple[Tuple[str, Tuple], ...] = ()
    stages: Optional[Tuple[str, ...]] = None
    # sim
    scenarios: Tuple[str, ...] = ("bernoulli",)
    seeds: Tuple[int, ...] = (0,)
    injection_scales: Tuple[float, ...] = (0.5,)
    cycles: int = 4_000
    warmup: int = 400
    packet_length_flits: int = 4
    #: Replications per engine task: ``None``/``1`` = one task per seed,
    #: ``K > 1`` = K seeds per task. Results and store fingerprints are
    #: identical either way.
    batch: Optional[int] = None

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Validate ``data`` (collecting *all* problems) and build the spec.

        Raises:
            CampaignSpecError: listing every issue with its JSON path.
        """
        issues = validate_campaign(data)
        if issues:
            raise CampaignSpecError(issues)
        kwargs: Dict[str, Any] = {
            "name": data["name"],
            "kind": data.get("kind", "sweep"),
            "benchmark": data.get("benchmark", "d26_media"),
            "dims": data.get("dims", "3d"),
            "config": tuple(sorted(
                (str(k), _freeze(v))
                for k, v in dict(data.get("config") or {}).items()
            )),
        }
        grid = dict(data.get("grid") or {})
        kwargs["grid"] = tuple(
            (key, _freeze(grid[key])) for key in GRID_KEYS if key in grid
        )
        if data.get("stages") is not None:
            kwargs["stages"] = tuple(str(s) for s in data["stages"])
        if kwargs["kind"] == "sim":
            for key, cast in (
                ("scenarios", str), ("seeds", int), ("injection_scales", float),
            ):
                if data.get(key) is not None:
                    kwargs[key] = tuple(cast(v) for v in data[key])
            for key in ("cycles", "warmup", "packet_length_flits", "batch"):
                if data.get(key) is not None:
                    kwargs[key] = int(data[key])
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """The round-trippable plain-dict form (JSON-serialisable)."""
        out: Dict[str, Any] = {
            "name": self.name, "kind": self.kind,
            "benchmark": self.benchmark, "dims": self.dims,
        }
        if self.config:
            out["config"] = {k: _thaw(v) for k, v in self.config}
        if self.kind == "sweep":
            if self.grid:
                out["grid"] = {k: _thaw(v) for k, v in self.grid}
            if self.stages is not None:
                out["stages"] = list(self.stages)
        else:
            out.update(
                scenarios=list(self.scenarios),
                seeds=list(self.seeds),
                injection_scales=list(self.injection_scales),
                cycles=self.cycles, warmup=self.warmup,
                packet_length_flits=self.packet_length_flits,
            )
            if self.batch is not None:
                out["batch"] = self.batch
        return out

    def base_config(self):
        """The resolved :class:`SynthesisConfig` (benchmark default +
        ``config`` overrides)."""
        from repro.experiments.common import default_config_for

        overrides = {k: _thaw(v) for k, v in self.config}
        base = default_config_for(
            self.benchmark,
            frequency_mhz=overrides.pop("frequency_mhz", 400.0),
            max_ill=overrides.pop("max_ill", 25),
            phase=overrides.pop("phase", "auto"),
            floorplanner=overrides.pop("floorplanner", "custom"),
            switch_count_range=overrides.pop("switch_count_range", None),
        )
        return base.with_(**overrides) if overrides else base

    def parameter_grid(self):
        """The sweep's :class:`~repro.engine.grid.ParameterGrid`."""
        from repro.engine.grid import ParameterGrid

        return ParameterGrid(**{k: _thaw(v) for k, v in self.grid})

    @property
    def task_count(self) -> int:
        """How many engine tasks :func:`compile_campaign` will produce
        (excluding a sim campaign's store-backed synthesis prestep)."""
        if self.kind == "sweep":
            return self.parameter_grid().size
        per_point = len(self.seeds)
        if self.batch is not None and self.batch > 1:
            per_point = -(-len(self.seeds) // self.batch)  # ceil division
        return len(self.scenarios) * per_point * len(self.injection_scales)


def validate_campaign(data: Any) -> List[SpecIssue]:
    """Every problem in ``data``, each with its JSON path. Empty = valid.

    Unlike exception-per-problem validation this keeps going after the
    first issue: unknown keys, bad grid values, unresolvable stages and
    malformed scenario specs are all reported in one pass.
    """
    if not isinstance(data, Mapping):
        return [SpecIssue("$", f"campaign spec must be an object/dict, "
                               f"got {type(data).__name__}")]
    issues: List[SpecIssue] = []
    kind = data.get("kind", "sweep")
    _check_header(data, kind, issues)
    _check_config(data.get("config"), issues)
    if kind == "sweep" or kind not in KINDS:
        _check_grid(data.get("grid"), issues)
        _check_stages(data.get("stages"), issues)
    if kind == "sim" or kind not in KINDS:
        _check_sim(data, issues)
    return issues


def load_campaign_file(path: Union[str, Path]) -> CampaignSpec:
    """Load and validate a campaign spec file (JSON; YAML when PyYAML is
    installed — gated, never a hard dependency).

    Raises:
        CampaignError: unreadable/unparseable file.
        CampaignSpecError: parseable but invalid (all issues listed).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CampaignError(f"cannot read campaign spec {path}: {exc}")
    data = _parse_spec_text(text, path)
    if not isinstance(data, Mapping):
        raise CampaignSpecError([SpecIssue(
            "$", f"campaign spec must be an object/dict, "
                 f"got {type(data).__name__}"
        )])
    return CampaignSpec.from_dict(data)


def compile_campaign(
    spec: CampaignSpec,
    *,
    store=None,
    stage_cache_dir: Optional[str] = None,
) -> List[object]:
    """Expand a validated spec into its engine task list.

    Deterministic: same spec → same tasks in the same order, every time —
    the property the service's crash-safe resume rests on (a recompiled
    job's tasks hit the same content-addressed store entries).

    For a ``sim`` campaign the prerequisite synthesis runs *here* (store-
    backed when ``store`` is given), because the simulation tasks embed the
    synthesized topology by value. A resumed campaign re-derives it from
    the store, so the downstream task fingerprints are identical.
    """
    from repro.bench.registry import get_benchmark

    bench = get_benchmark(spec.benchmark)
    core_spec = (
        bench.core_spec_3d if spec.dims == "3d" else bench.core_spec_2d
    )
    config = spec.base_config()
    if spec.dims == "2d":
        config = config.with_(phase="phase1")

    if spec.kind == "sweep":
        from repro.engine.grid import build_tasks

        return list(build_tasks(
            core_spec, bench.comm_spec, spec.parameter_grid(), config,
            stage_cache_dir=stage_cache_dir,
        ))

    # kind == "sim": synthesize the best point, then fan out the traffic grid.
    from repro.engine.executor import run_tasks
    from repro.engine.tasks import SynthesisTask, simulation_tasks

    synthesis = SynthesisTask(
        key=("campaign-synthesis", spec.benchmark, spec.dims),
        core_spec=core_spec,
        comm_spec=bench.comm_spec,
        config=config,
        stage_cache_dir=stage_cache_dir,
    )
    outcome = run_tasks([synthesis], jobs=1, store=store)[0]
    if outcome.error is not None:
        raise CampaignError(
            f"campaign {spec.name!r}: prerequisite synthesis failed: "
            f"{outcome.error}"
        )
    try:
        point = outcome.result.best(config.objective)
    except ReproError as exc:
        raise CampaignError(
            f"campaign {spec.name!r}: no design point to simulate "
            f"(benchmark {spec.benchmark}, dims {spec.dims}): {exc}"
        )
    return simulation_tasks(
        point.topology, spec.scenarios, spec.injection_scales, spec.seeds,
        spec.batch, packet_length_flits=spec.packet_length_flits,
        cycles=spec.cycles, warmup=spec.warmup,
    )


# --------------------------------------------------------------------------
# validation internals — one focused checker per spec region, all of them
# appending to the shared issue list instead of raising.

def _check_header(data: Mapping, kind, issues: List[SpecIssue]) -> None:
    name = data.get("name")
    if name is None:
        issues.append(SpecIssue("name", "required"))
    elif not isinstance(name, str) or not name.strip():
        issues.append(SpecIssue("name", f"must be a non-empty string, "
                                        f"got {name!r}"))
    elif not all(c.isalnum() or c in "._-" for c in name) or len(name) > 64:
        issues.append(SpecIssue(
            "name", f"must be <= 64 chars of [A-Za-z0-9._-], got {name!r}"
        ))
    if kind not in KINDS:
        issues.append(SpecIssue(
            "kind", f"must be one of {KINDS}, got {kind!r}"
        ))
    dims = data.get("dims", "3d")
    if dims not in DIMS:
        issues.append(SpecIssue(
            "dims", f"must be one of {DIMS}, got {dims!r}"
        ))
    benchmark = data.get("benchmark", "d26_media")
    from repro.bench.registry import list_benchmarks

    if not isinstance(benchmark, str) or benchmark not in list_benchmarks():
        issues.append(SpecIssue(
            "benchmark",
            f"unknown benchmark {benchmark!r}; "
            f"available: {', '.join(list_benchmarks())}",
        ))
    allowed = set(COMMON_KEYS)
    if kind == "sweep" or kind not in KINDS:
        allowed.update(SWEEP_KEYS)
    if kind == "sim" or kind not in KINDS:
        allowed.update(SIM_KEYS)
    for key in data:
        if key not in allowed:
            hint = ""
            if key in SIM_KEYS:
                hint = " (only valid for kind 'sim')"
            elif key in SWEEP_KEYS:
                hint = " (only valid for kind 'sweep')"
            issues.append(SpecIssue(str(key), f"unknown key{hint}"))


def _check_config(config: Any, issues: List[SpecIssue]) -> None:
    if config is None:
        return
    if not isinstance(config, Mapping):
        issues.append(SpecIssue(
            "config", f"must be an object of SynthesisConfig overrides, "
                      f"got {type(config).__name__}"
        ))
        return
    from dataclasses import fields as dc_fields

    from repro.core.config import SynthesisConfig

    known = {f.name for f in dc_fields(SynthesisConfig)}
    base = SynthesisConfig()
    clean: Dict[str, Any] = {}
    for key, value in config.items():
        if key not in known:
            issues.append(SpecIssue(
                f"config.{key}", "unknown SynthesisConfig field"
            ))
            continue
        value = _thaw(_freeze(value))
        # Apply one override at a time so a bad value is blamed on its own
        # key, not on whichever combination happened to trip first.
        try:
            base.with_(**{key: value})
        except (ReproError, TypeError, ValueError) as exc:
            issues.append(SpecIssue(f"config.{key}", str(exc)))
            continue
        clean[key] = value
    if len(clean) > 1:
        # Cross-field constraints (e.g. multi-start floorplan annealing
        # without the constrained floorplanner) only show up with all
        # overrides applied.
        try:
            base.with_(**clean)
        except (ReproError, TypeError, ValueError) as exc:
            issues.append(SpecIssue("config", str(exc)))


def _check_grid(grid: Any, issues: List[SpecIssue]) -> None:
    if grid is None:
        return
    if not isinstance(grid, Mapping):
        issues.append(SpecIssue(
            "grid", f"must be an object of sweep dimensions, "
                    f"got {type(grid).__name__}"
        ))
        return
    for key in grid:
        if key not in GRID_KEYS:
            issues.append(SpecIssue(
                f"grid.{key}",
                f"unknown dimension; known: {', '.join(GRID_KEYS)}",
            ))
    for key, check in (
        ("frequencies_mhz", _positive_number),
        ("alphas", _unit_interval),
        ("link_widths_bits", _positive_int),
        ("switch_count_ranges", _switch_range),
    ):
        values = grid.get(key)
        if values is None:
            continue
        if not isinstance(values, Sequence) or isinstance(values, str):
            issues.append(SpecIssue(f"grid.{key}", "must be a list"))
            continue
        for i, value in enumerate(values):
            problem = check(value)
            if problem:
                issues.append(SpecIssue(f"grid.{key}[{i}]", problem))


def _check_stages(stages: Any, issues: List[SpecIssue]) -> None:
    if stages is None:
        return
    if not isinstance(stages, Sequence) or isinstance(stages, str):
        issues.append(SpecIssue("stages", "must be a list of stage names"))
        return
    from repro.core.pipeline import STAGE_REGISTRY

    for i, stage in enumerate(stages):
        if not isinstance(stage, str) or stage not in STAGE_REGISTRY:
            issues.append(SpecIssue(
                f"stages[{i}]",
                f"unknown stage {stage!r}; "
                f"known: {', '.join(sorted(STAGE_REGISTRY))}",
            ))


def _check_sim(data: Mapping, issues: List[SpecIssue]) -> None:
    from repro.noc.scenarios import make_scenario

    scenarios = data.get("scenarios")
    if scenarios is not None:
        if not isinstance(scenarios, Sequence) or isinstance(scenarios, str):
            issues.append(SpecIssue(
                "scenarios", "must be a list of scenario specs"
            ))
        else:
            for i, scen in enumerate(scenarios):
                try:
                    make_scenario(scen)
                except ReproError as exc:
                    issues.append(SpecIssue(f"scenarios[{i}]", str(exc)))
    for key, check in (
        ("seeds", _non_negative_int), ("injection_scales", _positive_number),
    ):
        values = data.get(key)
        if values is None:
            continue
        if not isinstance(values, Sequence) or isinstance(values, str):
            issues.append(SpecIssue(key, "must be a list"))
            continue
        if not values:
            issues.append(SpecIssue(key, "must not be empty"))
        for i, value in enumerate(values):
            problem = check(value)
            if problem:
                issues.append(SpecIssue(f"{key}[{i}]", problem))
    for key, check in (
        ("cycles", _positive_int), ("warmup", _non_negative_int),
        ("packet_length_flits", _positive_int), ("batch", _positive_int),
    ):
        value = data.get(key)
        if value is None:
            continue
        problem = check(value)
        if problem:
            issues.append(SpecIssue(key, problem))
    cycles = data.get("cycles", 4_000)
    warmup = data.get("warmup", 400)
    if (
        _positive_int(cycles) is None and _non_negative_int(warmup) is None
        and warmup >= cycles
    ):
        issues.append(SpecIssue(
            "warmup", f"must be < cycles ({cycles}), got {warmup}"
        ))


def _positive_number(value) -> Optional[str]:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return f"must be a number, got {value!r}"
    if value <= 0:
        return f"must be positive, got {value!r}"
    return None


def _unit_interval(value) -> Optional[str]:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return f"must be a number, got {value!r}"
    if not 0.0 <= value <= 1.0:
        return f"must be in [0, 1], got {value!r}"
    return None


def _positive_int(value) -> Optional[str]:
    if not isinstance(value, int) or isinstance(value, bool):
        return f"must be an integer, got {value!r}"
    if value <= 0:
        return f"must be positive, got {value!r}"
    return None


def _non_negative_int(value) -> Optional[str]:
    if not isinstance(value, int) or isinstance(value, bool):
        return f"must be an integer, got {value!r}"
    if value < 0:
        return f"must be >= 0, got {value!r}"
    return None


def _switch_range(value) -> Optional[str]:
    if (
        not isinstance(value, Sequence) or isinstance(value, str)
        or len(value) != 2
    ):
        return f"must be a [min, max] pair, got {value!r}"
    lo, hi = value
    if _positive_int(lo) or _positive_int(hi) or hi < lo:
        return f"must be a [min, max] pair with 1 <= min <= max, got {value!r}"
    return None


def _freeze(value):
    """Lists → tuples, recursively, so specs hash/pickle/fingerprint."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value):
    """Tuples of pairs/values back to JSON-friendly lists where sensible."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


def _parse_spec_text(text: str, path: Path):
    """JSON first; ``.yml``/``.yaml`` falls back to PyYAML when present."""
    if path.suffix.lower() in (".yml", ".yaml"):
        try:
            import yaml
        except ImportError:
            raise CampaignError(
                f"{path}: YAML spec but PyYAML is not installed — "
                "use JSON instead"
            )
        try:
            return yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise CampaignError(f"{path}: invalid YAML: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CampaignError(f"{path}: invalid JSON: {exc}")
