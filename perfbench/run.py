"""End-to-end benchmark of this repository: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload synth_registry --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones (traced passes alternate with untraced passes, and the
difference in their wall time is the tracing overhead). The last line of
standard output is the JSON result. ``--all`` runs every workload untraced
and traced in child processes and prints the per-layer table grouped by
layer, then workload. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 3
#: Minimum passes per run: a cold and a warm one (untraced and traced).
MIN_PASSES = 2


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bootstrap(root: Path) -> None:
    """Import ``repro`` from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: repro imported from {repro.__file__}, "
                         f"not from {src}")


def machine(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def recorded_digest(mode: str, workload: str, seed: int) -> Optional[str]:
    try:
        doc = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        return None
    return doc.get(mode, {}).get(workload, {}).get(str(seed))


def record_digest(mode: str, workload: str, seed: int, digest: str) -> None:
    try:
        doc = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        doc = {}
    doc.setdefault(mode, {}).setdefault(workload, {})[str(seed)] = digest
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# one workload run
# --------------------------------------------------------------------------

def run_workload(
    name: str, seed: int, seconds: float, trace: bool, *,
    tiny: bool = False, workdir: Path, import_s: float = 0.0,
) -> dict:
    """Set up, run timed passes for about ``seconds``, check, and return
    ``{"result": <the JSON result>, "digest", "problems", "passes"}``."""
    import tracer as tracing
    from repro.noc import batchengine
    from workloads import WORKLOADS

    spec = load_spec()
    workload = WORKLOADS[name](seed, tiny, workdir)
    meter = workload.meter
    import_s *= meter.NOMINAL_S / meter.last
    setups, builds = [], []
    for _ in range(1 if tiny else SETUP_REPEATS):
        began = time.perf_counter()
        builds.append(workload.setup())
        setups.append((time.perf_counter() - began) * meter.scale())

    tracer = tracing.Tracer(workdir / "trace")
    passes, traced_walls, untraced_walls = [], [], []
    redos = 0
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        gc.collect()
        if traced:
            tracing.install(tracer)
            before = batchengine.DIRTY_REDOS
        try:
            result = workload.run_pass()
        finally:
            if traced:
                tracer.uninstall()
                redos += batchengine.DIRTY_REDOS - before
        tracer.collect_workers()
        passes.append((traced, result))
        (traced_walls if traced else untraced_walls).append(result.wall_s)
        elapsed = time.perf_counter() - started
        per_pass = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and elapsed + per_pass > seconds:
            break

    all_passes = [p for _t, p in passes]
    plain = [p for t, p in passes if not t]
    problems = [msg for p in all_passes for msg in p.problems]
    digests = {p.digest for p in all_passes}
    if len(digests) != 1:
        problems.append(f"passes disagree: {len(digests)} distinct digests")
    digest = all_passes[0].digest
    mode = "tiny" if tiny else "full"
    expected = recorded_digest(mode, name, seed)
    if expected is not None and expected != digest:
        problems.append(f"digest {digest[:12]} != recorded {expected[:12]}")
    # + the two run-level checks above: passes agree, recorded digest.
    checks = sum(p.checks for p in all_passes) + 2
    failed_checks = len(problems)
    failed_ops = sum(p.failed_ops for p in all_passes)
    attempted = sum(p.attempted for p in all_passes) + checks
    failed = failed_ops + failed_checks

    if trace:
        metrics = per_layer_metrics(
            tracer, [p for t, p in passes if t], traced_walls, untraced_walls,
            plain, statistics.median(builds), redos,
            failed / attempted,
        )
        names = spec["per_layer"]
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            **workload.summarize(all_passes),
            "peak_rss_mb": peak_rss_mb(),
            "noc_power_mw": all_passes[0].noc_power_mw,
        }
        names = spec["end_to_end"]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in names
        },
    }
    return {"result": result, "digest": digest, "problems": problems,
            "passes": len(passes)}


def per_layer_metrics(
    tracer, traced, traced_walls, untraced_walls, plain, build_s, redos,
    failed_ratio,
) -> Dict[str, float]:
    """Per traced pass: every span and counter of the per-layer list."""
    from repro.core.pipeline import DEFAULT_STAGE_NAMES

    n = len(traced)
    out: Dict[str, float] = {}

    def span(name: str, *, workers: bool = True):
        calls, total, own = tracer.span(name, workers=workers)
        return calls / n, total / n, own / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    calls, total, own = span("partition")
    out.update({"partition.calls": calls, "partition.s": total,
                "partition.self_s": own})
    parent_work = tracer.span("partition", workers=False)[1]
    for stage in DEFAULT_STAGE_NAMES:
        _c, total, own = span(f"stage.{stage}")
        out[f"stage.{stage}.s"] = total
        out[f"stage.{stage}.self_s"] = own
        parent_work += tracer.span(f"stage.{stage}", workers=False)[1]
    calls, _t, _o = span("pipeline")
    points = tracer.count("pipeline.points") / n
    out.update({"pipeline.candidates": calls, "pipeline.points": points,
                "pipeline.yield": ratio(points, calls)})
    calls, total, _o = span("lp")
    out.update({"lp.solves": calls, "lp.s": total})
    calls, total, _o = span("floorplan.insert")
    out.update({"floorplan.insert.calls": calls, "floorplan.insert.s": total})
    _c, total, own = span("floorplan.tsv")
    out.update({"floorplan.tsv.s": total, "floorplan.tsv.self_s": own})
    traced_wall = statistics.mean(traced_walls)
    out["driver.s"] = traced_wall - parent_work / n

    b_calls, b_total, _o = span("sim.batch")
    s_calls, s_total, _o = span("sim.solo")
    repcycles = tracer.count("sim.repcycles") / n
    out.update({
        "sim.batch.calls": b_calls, "sim.batch.s": b_total,
        "sim.batch.k_mean": ratio(tracer.count("sim.batch.reps") / n, b_calls),
        "sim.solo.calls": s_calls, "sim.solo.s": s_total,
        "sim.schedule.s": span("sim.schedule")[1],
        "sim.repcycles": repcycles,
        "sim.host_us_per_repcycle": ratio(1e6 * (b_total + s_total), repcycles),
        "sim.flits": tracer.count("sim.flits") / n,
        "sim.dirty_redos": redos / n,
        "sim_kcycles_per_s": statistics.median(p.sim_kcycles_per_s for p in plain),
        "latency_gap_cyc": plain[0].latency_gap_cyc,
    })
    g_calls, g_total, _o = span("store.get")
    p_calls, p_total, _o = span("store.put")
    hits = tracer.count("store.hits") / n
    out.update({
        "store.get.calls": g_calls, "store.get.s": g_total,
        "store.hits": hits, "store.hit_ratio": ratio(hits, g_calls),
        "store.put.calls": p_calls, "store.put.s": p_total,
        "store.bytes_written": tracer.count("store.bytes_written") / n,
    })
    cache = {k: sum(p.counters.get(f"stagecache.{k}", 0) for p in traced) / n
             for k in ("hits", "misses", "bytes_read", "bytes_written")}
    out.update({f"stagecache.{k}": v for k, v in cache.items()})
    out["stagecache.hit_ratio"] = ratio(
        cache["hits"], cache["hits"] + cache["misses"]
    )
    _c, total, own = span("executor")
    out.update({
        "executor.tasks": tracer.count("executor.tasks") / n,
        "executor.cached": tracer.count("executor.cached") / n,
        "executor.s": total, "executor.self_s": own,
    })
    calls, total, _o = span("journal.append")
    out.update({"journal.append.calls": calls, "journal.append.s": total})
    calls, total, own = span("service.step")
    out.update({
        "service.step.calls": calls, "service.step.s": total,
        "service.step.self_s": own,
        "service.overhead.s": total - tracer.edge("service.step", "executor") / n,
    })
    calls, total, _o = span("lock.wait")
    out.update({"lock.acquires": calls, "lock.wait.s": total})
    out["setup.bench_build.s"] = build_s
    out["failed_ratio"] = failed_ratio
    untraced_wall = statistics.mean(untraced_walls)
    out.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return out


# --------------------------------------------------------------------------
# printing
# --------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_metrics(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {_fmt(m['value']):>14} {m['unit']}")


def layer_of(metric: str) -> str:
    return metric.split(".")[0] if "." in metric else metric


def print_layer_table(runs: Dict[str, dict], spec: dict) -> None:
    """Per-layer metrics grouped by layer, then workload."""
    workloads = list(runs)
    groups: Dict[str, List[dict]] = {}
    for m in spec["per_layer"]:
        groups.setdefault(layer_of(m["name"]), []).append(m)
    width = max(len(w) for w in workloads)
    for layer, metrics in groups.items():
        print(f"[{layer}]")
        for m in metrics:
            for w in workloads:
                value = runs[w]["metrics"][m["name"]]["value"]
                print(f"  {m['name']:<28} {w:<{width}} {_fmt(value):>14} "
                      f"{m['unit']}")


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

def run_all(args, root: Path) -> int:
    """Every workload untraced and traced, each in its own child process."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    untraced, traced = {}, {}
    for trace, into in ((0, untraced), (1, traced)):
        for name in names:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, cwd=root, capture_output=True,
                                  text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            into[name] = json.loads(lines[-1])
    for name in names:
        res = untraced[name]
        print(f"== {name}: correct={res['correct']} attempted="
              f"{res['attempted']} failed={res['failed']}")
        print_metrics(res)
    print("== per-layer (traced runs), grouped by layer then workload")
    print_layer_table(traced, spec)
    ok = all(r["correct"] for r in list(untraced.values()) + list(traced.values()))
    print(json.dumps({"correct": ok, "machine": machine(root),
                      "untraced": untraced, "traced": traced}))
    return 0


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long inputs, for the self-tests")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced then traced")
    parser.add_argument("--record", action="store_true",
                        help="record this run's output digest in digests.json")
    args = parser.parse_args(argv)
    root = Path.cwd()
    bootstrap(root)
    if args.all:
        return run_all(args, root)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    import_s = time.perf_counter() - started
    workdir = root / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            tiny=args.tiny, workdir=workdir, import_s=import_s,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    result = run["result"]
    if args.record and not run["problems"]:
        record_digest("tiny" if args.tiny else "full", args.workload,
                      args.seed, run["digest"])
    print(f"workload {args.workload} seed {args.seed} passes {run['passes']} "
          f"trace {args.trace}")
    if args.trace:
        print_layer_table({args.workload: result}, load_spec())
    else:
        print_metrics(result)
    for problem in run["problems"]:
        print(f"check failed: {problem}")
    print("digest", run["digest"])
    print("machine", json.dumps(machine(root), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
