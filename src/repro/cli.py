"""Command-line interface: ``sunfloor3d`` (or ``python -m repro.cli``).

Sub-commands:

* ``synth``      — synthesize a NoC for a core + communication spec pair
  (JSON or text format) or a named built-in benchmark, printing the
  trade-off points and the chosen design; ``--jobs N`` fans candidate
  evaluation across the engine pool and ``--stage-timings`` prints the
  per-stage wall-clock breakdown of the staged pipeline.
  ``--floorplanner constrained`` selects the Sec. VIII-D baseline, one
  seeded anneal per layer insertion.
* ``sweep``      — explore an architectural design space (frequency × α ×
  link width) on the parallel engine (``--jobs``).
* ``sim``        — wormhole-simulate a synthesized benchmark under a
  (scenario × injection scale × seed) traffic campaign fanned across the
  engine pool (``--jobs``); see ``docs/simulator.md``.
* ``cache``      — inspect or manage the content-addressed on-disk result
  store (``stats`` / ``verify`` / ``clear``); ``synth``, ``sweep`` and
  ``sim`` accept ``--cache`` / ``--cache-dir DIR`` to serve
  already-computed results from the store and checkpoint fresh ones, so a
  killed campaign resumes on rerun (see ``docs/engine.md``). With caching
  on, ``synth`` and ``sweep`` also memoize *individual pipeline stages*
  (see ``docs/pipeline.md``), so a changed parameter re-runs only the
  stages it invalidates; ``cache stats`` breaks those records out per
  stage.
* ``campaign``   — declarative campaigns (see ``docs/campaign.md``):
  ``validate`` a spec file (every problem listed with its JSON path, exit
  2 if invalid), ``run`` one locally, or ``submit`` / ``status`` /
  ``cancel`` against a service spool directory.
* ``serve``      — the resident campaign service over a spool directory:
  bounded job queue with explicit backpressure, round-robin fairness
  across jobs, write-ahead journal, graceful SIGTERM drain; after a
  crash, ``serve --resume`` replays the journal and completes every
  incomplete job bit-identically from the content-addressed store.
* ``experiment`` — regenerate one of the paper's tables/figures by id
  (fig1, fig10, fig11, fig12, fig13, fig14, fig15, fig17, fig18, fig19,
  fig21, fig23, table1).
* ``benchmarks`` — list the built-in benchmark suite.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import List, Optional

from repro.bench.registry import get_benchmark, list_benchmarks
from repro.core.config import SynthesisConfig
from repro.core.pipeline import FlowContext, StageTimings, run_synthesis
from repro.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sunfloor3d",
        description="SunFloor 3D reproduction: NoC topology synthesis for 3-D SoCs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize a NoC topology")
    _add_design_args(synth)
    synth.add_argument("--frequency", type=float, default=400.0,
                       help="NoC frequency in MHz")
    synth.add_argument("--max-ill", type=int, default=25,
                       help="max inter-layer links per adjacent boundary")
    synth.add_argument("--phase", choices=("auto", "phase1", "phase2"),
                       default="auto")
    synth.add_argument("--objective", choices=("power", "latency"),
                       default="power")
    synth.add_argument("--switches", type=str, default=None,
                       help="switch count range, e.g. 3:14")
    synth.add_argument("--jobs", type=int, default=1,
                       help="worker processes for candidate evaluation "
                            "(0 = one per CPU, 1 = serial; results are "
                            "identical either way)")
    synth.add_argument("--stage-timings", action="store_true",
                       help="print the per-stage wall-clock breakdown")
    synth.add_argument("--floorplanner", choices=("custom", "constrained"),
                       default="custom",
                       help="NoC insertion routine: the paper's custom one "
                            "or the constrained-annealer baseline")
    synth.add_argument("--all-points", action="store_true",
                       help="print every valid design point")
    synth.add_argument("--verify", action="store_true",
                       help="run the design-rule verifier on the result")
    synth.add_argument("--ascii", action="store_true",
                       help="render the floorplan as ASCII art")
    synth.add_argument("--export-json", metavar="PATH",
                       help="write the chosen design point as JSON")
    synth.add_argument("--export-dot", metavar="PATH",
                       help="write the topology as Graphviz DOT")
    _add_cache_args(synth)
    _add_supervision_args(synth)

    sweep = sub.add_parser(
        "sweep", help="explore an architectural design space in parallel"
    )
    _add_design_args(sweep)
    sweep.add_argument("--frequencies", type=str, default=None,
                       help="comma-separated frequencies in MHz, e.g. 300,400,600")
    sweep.add_argument("--alphas", type=str, default=None,
                       help="comma-separated PG weights in [0,1], e.g. 0.3,0.7")
    sweep.add_argument("--widths", type=str, default=None,
                       help="comma-separated link widths in bits, e.g. 16,32,64")
    sweep.add_argument("--max-ill", type=int, default=25)
    sweep.add_argument("--switches", type=str, default=None,
                       help="switch count range, e.g. 3:14")
    sweep.add_argument("--jobs", type=int, default=0,
                       help="worker processes (0 = one per CPU, 1 = serial)")
    sweep.add_argument("--objective", choices=("power", "latency"),
                       default="power")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-point progress lines")
    _add_cache_args(sweep)
    _add_supervision_args(sweep)

    sim = sub.add_parser(
        "sim",
        help="wormhole-simulate a synthesized benchmark under traffic "
             "scenarios",
    )
    sim.add_argument("--benchmark", required=True,
                     help="built-in benchmark name")
    sim.add_argument("--scenarios", type=str, default="bernoulli",
                     help="comma-separated scenario specs: bernoulli, "
                          "hotspot[:core], bursty[:mean_burst_cycles], "
                          "scaled[:factor]")
    sim.add_argument("--scales", type=str, default="0.1,0.3,0.6,1.0",
                     help="comma-separated injection scales")
    sim.add_argument("--seeds", type=str, default="0",
                     help="comma-separated simulator seeds")
    sim.add_argument("--cycles", type=int, default=20_000,
                     help="injection horizon in cycles")
    sim.add_argument("--warmup", type=int, default=2_000,
                     help="cycles excluded from the statistics")
    sim.add_argument("--packet-flits", type=int, default=4,
                     help="packet length in flits")
    sim.add_argument("--max-ill", type=int, default=25)
    sim.add_argument("--switches", type=str, default=None,
                     help="switch count range, e.g. 3:14")
    sim.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the campaign (0 = one per "
                          "CPU, 1 = serial; results are identical either "
                          "way)")
    sim.add_argument("--batch", type=int, default=1,
                     help="replications per engine task (1 = one task per "
                          "seed; K > 1 packs each scenario/scale's seeds "
                          "K to a task; results are identical either way)")
    sim.add_argument("--quiet", action="store_true",
                     help="suppress per-run progress lines")
    _add_cache_args(sim)
    _add_supervision_args(sim)

    cache = sub.add_parser(
        "cache",
        help="inspect or manage the on-disk result store",
    )
    cache.add_argument("action", choices=("stats", "verify", "clear"),
                       help="stats: entry/size summary; verify: audit every "
                            "entry (--repair rewrites the packs without the "
                            "corrupt ones); clear: delete all entries")
    cache.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="store location (default: $REPRO_CACHE_DIR or "
                            ".repro-cache)")
    cache.add_argument("--repair", action="store_true",
                       help="with verify: drop entries that fail the audit")

    campaign = sub.add_parser(
        "campaign",
        help="declarative campaign specs: validate/run locally, or "
             "submit/status/cancel against a service spool directory",
    )
    csub = campaign.add_subparsers(dest="campaign_command", required=True)

    cval = csub.add_parser(
        "validate",
        help="check a campaign spec file; every problem is reported with "
             "its JSON path (exit 2 when invalid)",
    )
    cval.add_argument("spec", help="campaign spec file (JSON, or YAML "
                                   "where PyYAML is installed)")

    crun = csub.add_parser(
        "run", help="compile and run one campaign locally (no service)"
    )
    crun.add_argument("spec", help="campaign spec file")
    crun.add_argument("--jobs", type=int, default=1,
                      help="engine worker processes (0 = one per CPU)")
    crun.add_argument("--quiet", action="store_true",
                      help="suppress per-task progress lines")
    _add_cache_args(crun)

    csubmit = csub.add_parser(
        "submit", help="drop a spec in a service's inbox (validated "
                       "client-side first)"
    )
    csubmit.add_argument("spec", help="campaign spec file")
    csubmit.add_argument("--dir", required=True, metavar="SPOOL",
                         help="service spool directory")

    cstatus = csub.add_parser(
        "status", help="show job states from a spool's journal (read-only)"
    )
    cstatus.add_argument("--dir", required=True, metavar="SPOOL",
                         help="service spool directory")

    ccancel = csub.add_parser(
        "cancel", help="request cancellation of a queued/running job"
    )
    ccancel.add_argument("job", help="job id (e.g. job-0003)")
    ccancel.add_argument("--dir", required=True, metavar="SPOOL",
                         help="service spool directory")

    serve = sub.add_parser(
        "serve",
        help="run the resident campaign service over a spool directory "
             "(bounded queue, write-ahead journal, crash-safe resume)",
    )
    serve.add_argument("--dir", required=True, metavar="SPOOL",
                       help="spool directory (journal, inbox, store, "
                            "results; created if missing)")
    serve.add_argument("--resume", action="store_true",
                       help="replay the journal and finish incomplete jobs "
                            "(required when the previous service crashed "
                            "mid-campaign)")
    serve.add_argument("--once", action="store_true",
                       help="drain the inbox and queue, then exit instead "
                            "of staying resident")
    serve.add_argument("--jobs", type=int, default=1,
                       help="engine worker processes per batch "
                            "(1 = serial; results identical either way)")
    serve.add_argument("--max-queue", type=int, default=8,
                       help="bound on queued+running jobs; submissions "
                            "past it are rejected with a retry-after "
                            "(never silently dropped)")
    serve.add_argument("--batch", type=int, default=2,
                       help="engine tasks per scheduling turn per job "
                            "(the round-robin fairness quantum)")
    serve.add_argument("--idle-exit", type=float, default=None,
                       metavar="SECONDS",
                       help="exit after this long with nothing to do "
                            "(default: stay resident)")

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("id", help="experiment id (e.g. table1, fig11, fig23)")

    lint = sub.add_parser(
        "lint",
        help="run the contract linter (repro.analysis) over src/repro: "
             "stage input declarations, determinism, pickling safety, "
             "lock discipline, stage salts",
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint "
                           "(default: this installation's src/repro)")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable report on stdout")
    lint.add_argument("--checkers", metavar="NAME[,NAME...]", default=None,
                      help="run only these checkers (see --list)")
    lint.add_argument("--list", action="store_true", dest="list_checkers",
                      help="list registered checkers and finding codes, "
                           "then exit")

    sub.add_parser("benchmarks", help="list built-in benchmarks")
    return parser


def _add_design_args(parser) -> None:
    """The design of a synth or sweep run; see :func:`_load_specs`."""
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--benchmark", help="built-in benchmark name")
    source.add_argument("--cores", help="core specification file (json/text)")
    parser.add_argument("--comm", help="communication spec file (with --cores)")
    parser.add_argument("--dims", choices=("2d", "3d"), default="3d",
                        help="benchmark variant: 3d (stacked) or 2d (the "
                             "single-die flow of [16], which runs Phase 1 "
                             "only)")


def _add_cache_args(parser) -> None:
    parser.add_argument("--cache", action="store_true",
                        help="serve already-computed results from the "
                             "on-disk store and checkpoint fresh ones "
                             "(default dir: $REPRO_CACHE_DIR or "
                             ".repro-cache)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="store location (implies --cache)")


def _add_supervision_args(parser) -> None:
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="re-run a failing task up to N extra times, "
                             "at once (default 0)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-task deadline; a stuck worker pool is "
                             "killed and regenerated instead of waited on "
                             "(parallel runs only)")
    parser.add_argument("--on-error", choices=("raise", "quarantine"),
                        default="raise",
                        help="what to do when a task crashes its worker or "
                             "times out: abort the campaign (raise, "
                             "default) or quarantine the task and complete "
                             "the rest")


def _supervision(args):
    """The --retries/--task-timeout/--on-error flags as one validated
    :class:`~repro.engine.supervise.Supervision`. Built before any work, so
    a bad value exits 2 up front."""
    from repro.engine.supervise import Supervision

    return Supervision(
        retries=args.retries, task_timeout_s=args.task_timeout,
        on_error=args.on_error,
    )


def _open_store(args):
    """The run's ResultStore, or None when caching was not requested.

    An unwritable or invalid ``--cache-dir`` raises
    :class:`~repro.errors.StoreError` here — before any synthesis work —
    with a clear message instead of a traceback from the store layer.
    """
    if not getattr(args, "cache", False) and args.cache_dir is None:
        return None
    from repro.engine.store import open_store

    return open_store(args.cache_dir)


def _parse_values(text, cast, what):
    if text is None:
        return ()
    try:
        return tuple(cast(item) for item in text.split(",") if item.strip())
    except ValueError:
        raise ReproError(f"could not parse {what} list {text!r}")


def _parse_switch_range(text):
    if not text:
        return None
    lo, _, hi = text.partition(":")
    try:
        return (int(lo), int(hi or lo))
    except ValueError:
        raise ReproError(
            f"could not parse switch range {text!r} (expected e.g. 3:14)"
        )


def _load_specs(args, config: SynthesisConfig):
    """``(core_spec, comm_spec, config)`` of the run: a benchmark's
    ``--dims`` variant, or the ``--cores``/``--comm`` files as given."""
    if args.benchmark:
        bench = get_benchmark(args.benchmark)
        core_spec, config = bench.variant(args.dims, config)
        return core_spec, bench.comm_spec, config
    if not args.comm:
        raise ReproError("--comm is required together with --cores")
    from repro.spec.io import (
        load_comm_spec_json, load_comm_spec_text,
        load_core_spec_json, load_core_spec_text,
    )
    if args.cores.endswith(".json"):
        core_spec = load_core_spec_json(args.cores)
    else:
        core_spec = load_core_spec_text(args.cores)
    if args.comm.endswith(".json"):
        comm_spec = load_comm_spec_json(args.comm)
    else:
        comm_spec = load_comm_spec_text(args.comm)
    return core_spec, comm_spec, config


def _cmd_synth(args) -> int:
    supervision = _supervision(args)
    for flag, path in (("--export-json", args.export_json),
                       ("--export-dot", args.export_dot)):
        # Checked before any work: a synthesis must not end in a bare
        # FileNotFoundError at the write.
        if path and not Path(path).resolve().parent.is_dir():
            raise ReproError(f"{flag}: directory of {path} does not exist")
    config = SynthesisConfig(
        frequency_mhz=args.frequency,
        max_ill=args.max_ill,
        phase=args.phase,
        objective=args.objective,
        switch_count_range=_parse_switch_range(args.switches),
        floorplanner=args.floorplanner,
    )
    core_spec, comm_spec, config = _load_specs(args, config)
    store = _open_store(args)
    # Built before any store lookup: invalid specs exit 2 on a warm store.
    ctx = FlowContext.build(core_spec, comm_spec, config=config)
    timings = StageTimings()
    quarantined: list = []
    run = functools.partial(
        run_synthesis, ctx, jobs=args.jobs, timings=timings,
        supervision=supervision, quarantine_log=quarantined,
    )
    cached = False
    stage_cache = None
    if store is None:
        result = run()
    else:
        # The whole run is one content-addressed unit, filed exactly as
        # the engine files a sweep point (a bare SynthesisResult under the
        # SynthesisTask fingerprint), so `synth` and `sweep` share a store.
        # Beneath it, per-stage memoization shares the same store, so even
        # a *changed* config reuses every stage the change left untouched
        # (see docs/pipeline.md, "Stage memoization").
        from repro.engine.executor import resolve_jobs
        from repro.engine.profile import Timer
        from repro.engine.stagecache import StageCache
        from repro.engine.tasks import SynthesisTask

        resolve_jobs(args.jobs)  # a store hit never reaches run_synthesis
        stage_cache = StageCache(store)
        task = SynthesisTask(key="synth", core_spec=core_spec,
                             comm_spec=comm_spec, config=config)
        fingerprint = store.fingerprint(task)
        entry = store.get(fingerprint)
        if entry is not None:
            result, cached = entry.payload, True
        else:
            with Timer() as timer:
                result = run(stage_cache=stage_cache)
            store.put(fingerprint, result, task_type="SynthesisTask",
                      elapsed_s=timer.elapsed_s)
    if quarantined:
        print(f"{len(quarantined)} candidate evaluation(s) quarantined:")
        for key, message in quarantined:
            print(f"  {key}: {message}")
        print()
    if args.stage_timings:
        if cached:
            print("per-stage timings: none, the result was served from the "
                  "store and no stage ran")
        else:
            print(timings.report())
        print()
        if stage_cache is not None and stage_cache.stats_dict():
            from repro.engine.stagecache import format_stage_cache_summary

            print("stage cache:")
            print(format_stage_cache_summary(stage_cache.stats_dict()))
            print()
    if result.is_empty:
        print("no valid design points found "
              f"(unmet switch counts: {result.unmet_switch_counts})")
        return 1
    if args.all_points:
        for point in sorted(result.points, key=lambda p: p.switch_count):
            print(point.summary())
        print()
    best = result.best(args.objective)
    from repro.experiments.topology_report import describe_design_point

    print("best design point:")
    print(describe_design_point(best))

    if args.verify:
        from repro.core.verification import verify_design_point
        from repro.graphs.comm_graph import build_comm_graph
        from repro.models.library import default_library

        graph = build_comm_graph(core_spec, comm_spec)
        report = verify_design_point(best, graph, default_library())
        print("\nverification: " + report.summary())
        if not report.ok:
            return 1
    if args.ascii:
        from repro.floorplan.ascii_art import render_floorplan

        print()
        print(render_floorplan(best.floorplan))
    if args.export_json:
        from repro.noc.export import save_design_point_json

        save_design_point_json(best, args.export_json)
        print(f"\nwrote {args.export_json}")
    if args.export_dot:
        from repro.noc.export import save_topology_dot

        save_topology_dot(best.topology, args.export_dot, core_spec.names)
        print(f"wrote {args.export_dot}")
    return 0


def _cmd_sweep(args) -> int:
    from repro.engine import ParameterGrid, build_tasks, run_tasks

    supervision = _supervision(args)
    store = _open_store(args)  # fail fast on an unusable --cache-dir
    config = SynthesisConfig(
        max_ill=args.max_ill,
        objective=args.objective,
        switch_count_range=_parse_switch_range(args.switches),
    )
    core_spec, comm_spec, config = _load_specs(args, config)
    grid = ParameterGrid(
        frequencies_mhz=_parse_values(args.frequencies, float, "frequency"),
        alphas=_parse_values(args.alphas, float, "alpha"),
        link_widths_bits=_parse_values(args.widths, int, "width"),
    )
    # With a store, also arm per-stage memoization in the workers (same
    # directory/salt): neighbouring grid points share every stage their
    # parameters don't touch.
    tasks = build_tasks(
        core_spec, comm_spec, grid, config,
        stage_cache_dir=str(store.root) if store is not None else None,
        stage_cache_salt=store.salt if store is not None else None,
    )
    progress = None
    if not args.quiet:
        def progress(done, total, key):
            print(f"  [{done}/{total}] {key.label()}")
    print(f"sweeping {len(tasks)} design point(s) "
          f"(jobs={args.jobs or 'auto'})")
    results = run_tasks(tasks, jobs=args.jobs, progress=progress,
                        store=store, supervision=supervision)

    best = None
    quarantined = 0
    print(f"\n{'point':36s} {'valid':>5s} {'best mW':>9s} {'best lat':>9s}")
    for task_result in results:
        label = task_result.key.label()
        if task_result.error is not None:
            quarantined += 1
            note = f"quarantined: {type(task_result.error).__name__}"
            print(f"{label:36s} {0:5d} {note:>24s}")
            continue
        result = task_result.result
        if not result.points:
            note = "skipped" if task_result.skipped else "no valid points"
            print(f"{label:36s} {0:5d} {note:>20s}")
            continue
        point = result.best(args.objective)
        print(f"{label:36s} {len(result.points):5d} "
              f"{point.total_power_mw:9.1f} {point.avg_latency_cycles:9.2f}")
        if best is None or point.objective_value() < best.objective_value():
            best = point
    if quarantined:
        print(f"\n{quarantined} of {len(results)} point(s) quarantined "
              "(crashed or timed out); see rows above")
    if store is not None and not args.quiet:
        from repro.engine.stagecache import (
            format_stage_cache_summary, merge_stage_stats,
        )

        print(f"\nstore: {store.hits} hit(s), {store.misses} miss(es)")
        stage_stats: dict = {}
        for task_result in results:
            if task_result.stage_cache:
                merge_stage_stats(stage_stats, task_result.stage_cache)
        if stage_stats:
            print("stage cache:")
            print(format_stage_cache_summary(stage_stats))
    if best is None:
        print("\nno valid design points anywhere in the grid")
        return 1
    from repro.experiments.topology_report import describe_design_point

    print("\nbest design point over the grid:")
    print(describe_design_point(best))
    return 0


def _cmd_sim(args) -> int:
    from repro.experiments.common import default_config_for
    from repro.experiments.simulation_validation import run_simulation_validation

    supervision = _supervision(args)
    store = _open_store(args)  # fail fast on an unusable --cache-dir
    config = default_config_for(
        args.benchmark,
        max_ill=args.max_ill,
        switch_count_range=_parse_switch_range(args.switches),
    )
    scenarios = tuple(
        s.strip() for s in args.scenarios.split(",") if s.strip()
    )
    progress = None
    if not args.quiet:
        def progress(done, total, key):
            print(f"  [{done}/{total}] {key}")
    table = run_simulation_validation(
        benchmark=args.benchmark,
        injection_scales=_parse_values(args.scales, float, "scale"),
        cycles=args.cycles,
        warmup=args.warmup,
        config=config,
        packet_length_flits=args.packet_flits,
        scenarios=scenarios,
        seeds=_parse_values(args.seeds, int, "seed"),
        jobs=args.jobs,
        batch=args.batch,
        progress=progress,
        store=store,
        supervision=supervision,
    )
    print()
    table.print_table()
    if store is not None and not args.quiet:
        print(f"\nstore: {store.hits} hit(s), {store.misses} miss(es)")
    return 0


def _cmd_cache(args) -> int:
    from repro.engine.stagecache import human_bytes
    from repro.engine.store import open_store

    # Inspection-only open: auditing a store on a read-only mount must
    # work, and `cache stats` of a missing store must not create one.
    # clear / verify --repair only unlink or rewrite existing packs, which
    # needs no directory creation or write probe either.
    store = open_store(args.cache_dir, readonly=True)
    if args.action == "stats":
        stats = store.stats()
        print(f"store: {stats.root}")
        print(f"entries: {stats.entries} ({human_bytes(stats.total_bytes)})")
        print(f"shadowed frames: {stats.shadowed}")
        stage_types = [t for t in sorted(stats.by_task_type)
                       if t.startswith("stage:")]
        for task_type in sorted(stats.by_task_type):
            if task_type not in stage_types:
                print(f"  {task_type}: {stats.by_task_type[task_type]}")
        if stage_types:
            print("  stage records (per-stage memoization):")
            for task_type in stage_types:
                name = task_type[len("stage:"):]
                print(f"    {name}: {stats.by_task_type[task_type]}")
        return 0
    if args.action == "verify":
        report = store.verify(repair=args.repair)
        print(f"checked {report.checked} entr"
              f"{'y' if report.checked == 1 else 'ies'}: {report.ok} ok, "
              f"{len(report.bad)} bad, {report.removed} removed")
        for path, reason in report.bad:
            print(f"  {path}: {reason}")
        if report.clean:
            return 0
        # A repair only succeeds if every bad entry actually came off disk
        # (unlink failures on read-only stores are swallowed by the layer
        # below); exit 0 must mean "the store is clean now".
        if args.repair and report.removed == len(report.bad):
            return 0
        return 1
    removed, failed = store.clear()
    print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
          f"from {store.root}")
    if failed:
        print(f"error: {failed} entr"
              f"{'y' if failed == 1 else 'ies'} could not be removed",
              file=sys.stderr)
        return 1
    return 0


def _cmd_campaign(args) -> int:
    from repro.campaign import (
        CampaignService, compile_campaign, load_campaign_file,
    )

    if args.campaign_command == "validate":
        spec = load_campaign_file(args.spec)  # raises listing every issue
        print(f"{args.spec}: ok — campaign {spec.name!r} "
              f"({spec.kind}, {spec.benchmark}, {spec.task_count} task(s))")
        return 0
    if args.campaign_command == "run":
        from repro.engine.executor import run_tasks

        spec = load_campaign_file(args.spec)
        store = _open_store(args)
        tasks = compile_campaign(spec, store=store)
        progress = None
        if not args.quiet:
            def progress(done, total, key):
                print(f"  [{done}/{total}] {key}")
        print(f"campaign {spec.name!r}: {len(tasks)} task(s) "
              f"(jobs={args.jobs or 'auto'})")
        results = run_tasks(tasks, jobs=args.jobs, progress=progress,
                            store=store, raise_errors=False)
        failed = [r for r in results if r.error is not None]
        print(f"done: {len(results) - len(failed)} ok, {len(failed)} failed")
        return 1 if failed else 0
    if args.campaign_command == "submit":
        from repro.campaign.service import submit_file

        target = submit_file(args.dir, args.spec)
        print(f"submitted {args.spec} -> {target}")
        print("(a running `serve` on that directory will pick it up; "
              "check `campaign status`)")
        return 0
    if args.campaign_command == "status":
        state = CampaignService.status(args.dir)
        if not state.jobs:
            print(f"{args.dir}: no jobs journaled")
        else:
            print(f"{'job':10s} {'state':10s} {'progress':>10s} digest")
            for job in state.jobs.values():
                progress_str = (
                    f"{job.done_tasks}/{job.total_tasks}"
                    if job.total_tasks else "-"
                )
                tail = job.digest[:12] if job.digest else (job.error or "")
                print(f"{job.job_id:10s} {job.state:10s} "
                      f"{progress_str:>10s} {tail}")
        if state.rejected:
            print(f"{state.rejected} submission(s) rejected (backpressure)")
        if state.torn_tail:
            print("note: journal has a torn final record (crash signature); "
                  "resume with `serve --resume`")
        return 0
    # cancel
    from repro.campaign.service import request_cancel

    marker = request_cancel(args.dir, args.job)
    print(f"cancellation of {args.job} requested ({marker})")
    return 0


def _cmd_serve(args) -> int:
    from repro.campaign import CampaignService

    with CampaignService(
        args.dir, max_queue=args.max_queue, batch_size=args.batch,
        jobs=args.jobs, resume=args.resume,
    ) as service:
        print(f"serving {service.paths.root} "
              f"(max_queue={service.max_queue}, batch={service.batch_size}"
              f"{', resumed' if args.resume else ''})")
        if args.once:
            completed = service.run_until_idle()
            print(f"drained: {len(completed)} job(s) completed")
        else:
            service.serve_forever(idle_exit_s=args.idle_exit)
            print("service stopped (drained)")
    return 0


def _cmd_experiment(args) -> int:
    exp_id = args.id.lower()
    from repro.experiments import (
        fig01_yield, floorplan_comparison, max_ill_sweep, mesh_comparison,
        phase_comparison, power_curves, table1_2d_vs_3d, topology_report,
        wirelength,
    )

    runners = {
        "fig1": lambda: [fig01_yield.run_yield_curves(),
                         fig01_yield.run_budget_table()],
        "fig10": lambda: [power_curves.run_power_vs_switches(dims="2d")],
        "fig11": lambda: [power_curves.run_power_vs_switches(dims="3d")],
        "fig12": lambda: [wirelength.run_wirelength_distribution()],
        "fig13": lambda: [topology_report.run_topology_report(phase="phase1")],
        "fig14": lambda: [topology_report.run_topology_report(phase="phase2")],
        "fig15": lambda: [topology_report.run_floorplan_report()],
        "fig16": lambda: [topology_report.run_floorplan_report()],
        "fig17": lambda: [phase_comparison.run_phase_comparison()],
        "fig18": lambda: [floorplan_comparison.run_area_vs_switches()],
        "fig19": lambda: [floorplan_comparison.run_best_point_comparison()],
        "fig20": lambda: [floorplan_comparison.run_best_point_comparison()],
        "fig21": lambda: [max_ill_sweep.run_max_ill_sweep()],
        "fig22": lambda: [max_ill_sweep.run_max_ill_sweep()],
        "fig23": lambda: [mesh_comparison.run_mesh_comparison()],
        "table1": lambda: [table1_2d_vs_3d.run_table1()],
    }
    if exp_id not in runners:
        print(f"unknown experiment {args.id!r}; known: {', '.join(sorted(runners))}")
        return 1
    for table in runners[exp_id]():
        table.print_table()
        print()
    return 0


def _cmd_lint(args) -> int:
    """Run the contract linter; exit 1 on any unsuppressed finding.

    The analysis package is imported lazily so every other CLI command
    stays import-light.
    """
    from repro.analysis import (
        CHECKER_REGISTRY, format_report, known_codes, lint_paths,
    )

    if args.list_checkers:
        for name, cls in CHECKER_REGISTRY.items():
            print(name)
            for code, description in sorted(cls.codes.items()):
                print(f"  {code}  {description}")
        print("framework")
        for code, description in sorted(
            c for c in known_codes().items() if c[0].startswith("RPL0")
        ):
            print(f"  {code}  {description}")
        return 0

    package_dir = Path(__file__).resolve().parent      # .../src/repro
    project_root = package_dir.parent.parent
    paths = args.paths or [package_dir]
    checkers = args.checkers.split(",") if args.checkers else None

    report = lint_paths(paths, project_root=project_root, checkers=checkers)
    print(format_report(report, as_json=args.json))
    return 0 if report.clean else 1


def _cmd_benchmarks() -> int:
    for name in list_benchmarks():
        bench = get_benchmark(name)
        print(f"{name:12s} {bench.num_cores:3d} cores, {bench.num_flows:3d} flows, "
              f"{bench.num_layers} layers - {bench.description}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "sim":
            return _cmd_sim(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "benchmarks":
            return _cmd_benchmarks()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
