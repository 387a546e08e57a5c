"""Guard against regrowth of loose engine keyword arguments.

Supervision travels as one :class:`repro.engine.supervise.Supervision`
value (``run_tasks(..., supervision=)``), whose ``retries`` reaches the
worker entry point as a plain int (``run_task(task, retries)``). No
function in ``src/repro`` may declare the individual supervision knobs as
parameters again, nor regrow the engine options that were deleted for
having no caller: executor chunking, the store's size budget and
eviction grace window, and retry backoff/filtering. The Fig. 3 stage
sequence is fixed, so no stage-substitution hook (``overrides``, a
``stages`` field, ``build_pipeline``/``register_stage``) may return either.
The store's per-call fingerprint memo is private plumbing: the public
fingerprint functions keep their signatures. Every stage is fingerprinted:
``Stage.cacheable`` and the per-stage ``StageCache.fingerprint`` /
``signature`` calls may not return.

Each job has one way in: a single synthesis is ``run_synthesis(ctx, ...)``
(``synthesize`` is its spec-level form and forwards every keyword), and a
sweep is ``run_tasks(build_tasks(..., ParameterGrid(...)))`` with
``sweep_frequencies`` as the one named sweep. The deleted wrappers
(``SunFloor3D``, the α/width/lowest-frequency sweep helpers, the whole-run
timing replay) and the ``skip_infeasible`` switch may not return.

Each floorplanner runs one seeded anneal per call: multi-start annealing
(``restarts``, its two engine task types, its RNG helper and its two
``SynthesisConfig`` fields) may not return.

Each knob has one judge: :class:`~repro.core.config.SynthesisConfig`
for a synthesis value, ``repro.engine.tasks.sim_param_issues`` for a
traffic value and ``resolve_jobs`` for ``jobs``. The campaign spec's
range helpers may not return, and the grid, campaign and ``serve`` doors
may not order a knob value themselves.

Values no caller sets are constants next to their one reader, not
knobs: the θ sweep, Algorithm 3's soft margins, SOFT_INF factor,
utilisation cap, deadlock retries, adjacent-layer rule and indirect
switches, and the inserter's search grid may not return as
``SynthesisConfig`` fields; the sim tasks, ``run_simulation_validation``
and ``simulation_tasks`` take no ``buffer_depth``/``drain_limit``;
``compile_campaign`` arms the stage cache from its store alone; and the
lint baseline may not return.

What ``dims="2d"`` means is decided once, by ``Benchmark.variant``: the
``synthesize_2d`` wrapper, the ``suite_design_space`` sweep wrapper, the
unused ``best_power_point`` helper and an eager ``core_spec_2d`` field may
not return, and no other module may pick the variant or force Phase 1 for
it by itself.
"""

import ast
import dataclasses
import importlib.util
import inspect
from pathlib import Path

import repro
import repro.bench.suites
import repro.core
import repro.experiments.common
import repro.engine.tasks
import repro.rng
from repro.campaign.spec import CampaignSpec
from repro.core import frequency_sweep, pipeline, synthesis
from repro.core.pipeline import StageTimings, run_synthesis
from repro.core.synthesis import synthesize
from repro.engine.store import ResultStore, fingerprint_task
from repro.engine.tasks import CandidateTask, SynthesisTask

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

LOOSE_KNOBS = {
    "retry", "task_timeout_s", "on_error", "max_pool_restarts",
    "chunk_size", "max_bytes", "evict_grace_s", "backoff_s", "retry_on",
    "overrides", "skip_infeasible", "restarts",
}


def _loose_parameters(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        for arg in params:
            if arg.arg in LOOSE_KNOBS:
                yield f"{node.name}({arg.arg}=) at line {node.lineno}"


def test_no_loose_supervision_parameters():
    sources = sorted(SRC.rglob("*.py"))
    assert len(sources) > 50  # the walk really found the package
    found = [
        f"{path.relative_to(SRC)}: {where}"
        for path in sources
        for where in _loose_parameters(path)
    ]
    assert not found, (
        "loose engine knobs declared (supervision travels as one "
        f"`supervision: Supervision`; the others have no caller): {found}"
    )


def test_guard_catches_a_loose_knob(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def sweep(points, *, on_error='raise'):\n    pass\n")
    assert list(_loose_parameters(bad)) == ["sweep(on_error=) at line 1"]


def test_no_stage_substitution_surface():
    for cls in (SynthesisTask, CandidateTask, CampaignSpec):
        assert "stages" not in {f.name for f in dataclasses.fields(cls)}, cls
    for name in ("build_pipeline", "register_stage"):
        assert not hasattr(repro, name), name


def _parameters(fn):
    return [
        (p.name, p.kind.name, p.default)
        for p in inspect.signature(fn).parameters.values()
    ]


def test_fingerprint_memo_is_not_a_public_parameter():
    empty = inspect.Parameter.empty
    assert _parameters(fingerprint_task) == [
        ("task", "POSITIONAL_OR_KEYWORD", empty),
        ("salt", "KEYWORD_ONLY", None),
    ]
    assert _parameters(ResultStore.fingerprint) == [
        ("self", "POSITIONAL_OR_KEYWORD", empty),
        ("task", "POSITIONAL_OR_KEYWORD", empty),
    ]


def test_every_stage_is_fingerprinted():
    """A stage cannot opt out of the stage cache, and the cache
    fingerprints a whole stage sequence in one call."""
    from repro.engine.stagecache import StageCache

    assert not hasattr(pipeline.Stage, "cacheable")
    assert callable(StageCache.fingerprints)
    for name in ("fingerprint", "signature"):
        assert not hasattr(StageCache, name), name


DELETED_ENTRY_POINTS = (
    "SunFloor3D", "sweep_alpha", "sweep_link_widths",
    "find_lowest_feasible_frequency", "minimum_feasible_frequency",
)


def test_deleted_entry_points_stay_gone():
    for module in (repro, repro.core, synthesis, frequency_sweep, pipeline):
        for name in DELETED_ENTRY_POINTS:
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in getattr(module, "__all__", ()), name
    assert not hasattr(StageTimings, "mark_all_cached")


def test_synthesize_accepts_every_run_synthesis_keyword(tiny_specs):
    run_keywords = [
        name for name, kind, _ in _parameters(run_synthesis)
        if kind == "KEYWORD_ONLY"
    ]
    assert {"jobs", "timings", "supervision", "quarantine_log",
            "stage_cache"} <= set(run_keywords)
    declared = {name: kind for name, kind, _ in _parameters(synthesize)}
    forwards_all = "VAR_KEYWORD" in declared.values()
    missing = [n for n in run_keywords if n not in declared]
    assert forwards_all or not missing, missing
    # And they really arrive: the side-channel outputs are filled.
    core_spec, comm_spec = tiny_specs
    timings, quarantined = StageTimings(), []
    result = synthesize(
        core_spec, comm_spec, config=repro.SynthesisConfig(max_ill=10),
        jobs=1, progress=None, timings=timings, supervision=None,
        quarantine_log=quarantined, stage_cache=None,
    )
    assert result.points and timings.count("routing") > 0
    assert quarantined == []


def test_multistart_annealing_stays_gone():
    for module, name in (
        (repro.engine.tasks, "FloorplanTask"),
        (repro.engine.tasks, "ConstrainedInsertTask"),
        (repro.rng, "restart_rng"),
    ):
        assert not hasattr(module, name), (module.__name__, name)
    fields = {f.name for f in dataclasses.fields(repro.SynthesisConfig)}
    assert not fields & {"floorplan_restarts", "floorplan_jobs"}


def test_one_door_per_benchmark_variant():
    from repro.bench.builder import Benchmark

    for module, name in (
        (repro, "synthesize_2d"), (repro.core, "synthesize_2d"),
        (repro.bench.suites, "suite_design_space"),
        (repro.experiments.common, "best_power_point"),
    ):
        assert not hasattr(module, name), (module.__name__, name)
        assert name not in getattr(module, "__all__", ()), name
    assert importlib.util.find_spec("repro.core.synthesis2d") is None
    assert "core_spec_2d" not in {f.name for f in dataclasses.fields(Benchmark)}
    variant_rule = SRC / "bench" / "builder.py"
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        if path != variant_rule:
            assert 'with_(phase="phase1")' not in text, path
            assert "else bench.core_spec_2d" not in text, path


DELETED_RANGE_HELPERS = {
    "_positive_number", "_unit_interval", "_positive_int",
    "_non_negative_int", "_switch_range",
}

#: Doors that ask a knob's owner: (file, class or None, function).
ASKING_DOORS = (
    ("engine/grid.py", "ParameterGrid", "validate"),
    ("campaign/spec.py", None, "_check_grid"),
    ("campaign/spec.py", None, "_check_sim"),
    ("cli.py", None, "_cmd_serve"),
)


def _function(path: Path, owner, name):
    tree = ast.parse(path.read_text(), filename=str(path))
    scope = tree
    if owner is not None:
        scope = next(
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == owner
        )
    return next(
        node for node in scope.body
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def _orderings(node):
    """Source lines of every ``<``/``<=``/``>``/``>=`` under ``node``."""
    return [
        ast.unparse(sub) for sub in ast.walk(node)
        if isinstance(sub, ast.Compare) and any(
            isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
            for op in sub.ops
        )
    ]


def test_one_owner_per_knob():
    for path in sorted(SRC.rglob("*.py")):
        defined = {
            node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef)
        }
        assert not defined & DELETED_RANGE_HELPERS, path
    for relative, owner, name in ASKING_DOORS:
        door = _function(SRC / relative, owner, name)
        assert _orderings(door) == [], (relative, name)
    init = _function(SRC / "campaign" / "service.py", "CampaignService",
                     "__init__")
    assert not [line for line in _orderings(init) if "jobs" in line]


def test_ordering_guard_catches_a_range_check():
    tree = ast.parse("def validate(self):\n    if width <= 0:\n        pass\n")
    assert _orderings(tree) == ["width <= 0"]


REMOVED_CONFIG_FIELDS = {
    "theta_min", "theta_max", "theta_step", "soft_ill_margin",
    "soft_switch_margin", "soft_inf_factor", "utilisation_cap",
    "deadlock_retries", "adjacent_layer_links_only",
    "allow_indirect_switches", "search_radius_mm", "grid_step_mm",
}


def test_unset_knobs_stay_constants():
    from repro.analysis import lint_paths
    from repro.campaign.spec import compile_campaign
    from repro.engine.tasks import (
        BatchSimulationTask, SimulationTask, simulation_tasks,
    )
    from repro.experiments.simulation_validation import (
        run_simulation_validation,
    )

    config_fields = {
        f.name for f in dataclasses.fields(repro.SynthesisConfig)
    }
    assert not config_fields & REMOVED_CONFIG_FIELDS
    assert len(config_fields) == 12
    sim_knobs = {"buffer_depth", "drain_limit"}
    for cls in (SimulationTask, BatchSimulationTask):
        assert not {f.name for f in dataclasses.fields(cls)} & sim_knobs, cls
    for fn, gone in (
        (run_simulation_validation, sim_knobs),
        (simulation_tasks, sim_knobs),
        (compile_campaign, {"stage_cache_dir"}),
        (lint_paths, {"baseline"}),
    ):
        declared = {name for name, _, _ in _parameters(fn)}
        assert not declared & gone, (fn.__name__, declared & gone)
    assert not hasattr(repro.analysis, "Baseline")
