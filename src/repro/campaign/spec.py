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
This module checks only shapes; every value is judged by its one owner,
which the library and the CLI ask too: :func:`~repro.core.config.
field_problem` (:class:`~repro.core.config.SynthesisConfig`'s rules) for
``config`` and ``grid`` values, :func:`~repro.engine.tasks.
sim_param_issues` for the traffic knobs.

Compilation is deterministic: the same spec always expands to the same
task list in the same order, which is what lets the campaign service
resume a SIGKILLed job bit-identically from the content-addressed store.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.config import SynthesisConfig, field_problem
from repro.engine.grid import DIMENSIONS
from repro.engine.tasks import sim_param_issues
from repro.errors import CampaignError, CampaignSpecError, ReproError

KINDS = ("sweep", "sim")
DIMS = ("3d", "2d")

#: Top-level spec keys, by applicability. ``grid`` configures a sweep; the
#: traffic keys configure a sim campaign.
COMMON_KEYS = ("name", "kind", "benchmark", "dims", "config")
SWEEP_KEYS = ("grid",)
SIM_KEYS = (
    "scenarios", "seeds", "injection_scales", "cycles", "warmup",
    "packet_length_flits", "batch",
)

GRID_KEYS = tuple(DIMENSIONS)


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
    SynthesisConfig` settings as a sorted tuple of ``(key, value)`` pairs
    so the spec stays hashable and fingerprintable.
    """

    name: str
    kind: str = "sweep"
    benchmark: str = "d26_media"
    dims: str = "3d"
    config: Tuple[Tuple[str, Any], ...] = ()
    # sweep
    grid: Tuple[Tuple[str, Tuple], ...] = ()
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
            (key, _freeze(grid[key])) for key in GRID_KEYS
            if grid.get(key) is not None
        )
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
        ``config`` settings)."""
        from repro.experiments.common import default_config_for

        settings = {k: _thaw(v) for k, v in self.config}
        base = default_config_for(
            self.benchmark,
            frequency_mhz=settings.pop("frequency_mhz", 400.0),
            max_ill=settings.pop("max_ill", 25),
            phase=settings.pop("phase", "auto"),
            floorplanner=settings.pop("floorplanner", "custom"),
            switch_count_range=settings.pop("switch_count_range", None),
        )
        return base.with_(**settings) if settings else base

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
    first issue: unknown keys, bad grid values and malformed scenario
    specs are all reported in one pass.
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


def compile_campaign(spec: CampaignSpec, *, store=None) -> List[object]:
    """Expand a validated spec into its engine task list.

    Deterministic: same spec → same tasks in the same order, every time —
    the property the service's crash-safe resume rests on (a recompiled
    job's tasks hit the same content-addressed store entries).

    Given a ``store``, every synthesis task also memoises its pipeline
    stages under that store's root and salt
    (:mod:`repro.engine.stagecache`), whoever compiles the campaign.

    For a ``sim`` campaign the prerequisite synthesis runs *here* (store-
    backed when ``store`` is given), because the simulation tasks embed the
    synthesized topology by value. A resumed campaign re-derives it from
    the store, so the downstream task fingerprints are identical.
    """
    from repro.bench.registry import get_benchmark

    bench = get_benchmark(spec.benchmark)
    core_spec, config = bench.variant(spec.dims, spec.base_config())
    stage_cache = {} if store is None else {
        "stage_cache_dir": str(store.root), "stage_cache_salt": store.salt,
    }

    if spec.kind == "sweep":
        from repro.engine.grid import build_tasks

        return list(build_tasks(
            core_spec, bench.comm_spec, spec.parameter_grid(), config,
            **stage_cache,
        ))

    # kind == "sim": synthesize the best point, then fan out the traffic grid.
    from repro.engine.executor import run_tasks
    from repro.engine.tasks import SynthesisTask, simulation_tasks

    synthesis = SynthesisTask(
        key=("campaign-synthesis", spec.benchmark, spec.dims),
        core_spec=core_spec,
        comm_spec=bench.comm_spec,
        config=config,
        **stage_cache,
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
            "config", f"must be an object of SynthesisConfig settings, "
                      f"got {type(config).__name__}"
        ))
        return
    known = {f.name for f in fields(SynthesisConfig)}
    for key, value in config.items():
        if key not in known:
            issues.append(SpecIssue(
                f"config.{key}", "unknown SynthesisConfig field"
            ))
        else:
            # No rule spans two fields, so each override is judged alone
            # and a bad value is blamed on its own key.
            _judge(f"config.{key}", key, value, issues)


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
        if key not in DIMENSIONS:
            issues.append(SpecIssue(
                f"grid.{key}",
                f"unknown dimension; known: {', '.join(GRID_KEYS)}",
            ))
    for key, name in DIMENSIONS.items():
        values = grid.get(key)
        if values is None:
            continue
        if not isinstance(values, Sequence) or isinstance(values, str):
            issues.append(SpecIssue(f"grid.{key}", "must be a list"))
            continue
        for i, value in enumerate(values):
            _judge(f"grid.{key}[{i}]", name, value, issues)


def _judge(path: str, name: str, value, issues: List[SpecIssue]) -> None:
    """File :func:`field_problem`'s verdict on one synthesis value under
    ``path``."""
    problem = field_problem(name, _thaw(_freeze(value)))
    if problem is not None:
        issues.append(SpecIssue(path, problem))


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
    # A null or malformed key keeps its default (as ``from_dict`` does for
    # null), so the traffic rules see the values the spec will carry.
    params = {
        key: getattr(CampaignSpec, key) for key in SIM_KEYS
        if key != "scenarios"
    }
    for key in params:
        value = data.get(key)
        if value is None:
            continue
        if key in ("seeds", "injection_scales") and (
            not isinstance(value, Sequence) or isinstance(value, str)
        ):
            issues.append(SpecIssue(key, "must be a list"))
            continue
        params[key] = value
    issues.extend(
        SpecIssue(path, message)
        for path, message in sim_param_issues(**params)
    )


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
