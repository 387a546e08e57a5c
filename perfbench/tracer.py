"""Span tracing for the traced benchmark run, installed from outside ``src/``.

:func:`install` replaces a fixed set of public functions and methods of the
program's layers with wrappers that record one span per call: call count,
total seconds and self seconds (the span minus the child spans it covers).
:meth:`Tracer.uninstall` puts every original back, so untraced passes run
the program exactly as shipped.

Pool workers forked while the wrappers are installed inherit them. A worker
keeps its own aggregates and rewrites them to a JSON file in the spool
directory after each of its top-level spans; :meth:`Tracer.collect_workers`
folds those files into the benchmark process's totals once the pool is gone.
"""

from __future__ import annotations

import functools
import json
import os
import time
import uuid
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: ``on_call(tracer, args, kwargs, result)`` — derives counters from a call.
OnCall = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Per-process span and counter aggregates plus the installed patches."""

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        #: span name -> [calls, total_s, self_s], this process only.
        self.spans: Dict[str, List[float]] = {}
        #: (parent span, child span) -> seconds of the child inside parent.
        self.edges: Dict[Tuple[str, str], float] = {}
        self.counts: Dict[str, float] = {}
        #: The same three, folded in from worker processes.
        self.worker_spans: Dict[str, List[float]] = {}
        self.worker_edges: Dict[Tuple[str, str], float] = {}
        self.worker_counts: Dict[str, float] = {}
        self._stack: List[list] = []
        self._patches: List[tuple] = []
        self._pid = os.getpid()
        self._dump_path: Optional[Path] = None

    # -- patching -----------------------------------------------------------

    def wrap(
        self, owner, attr: str, span: str, on_call: Optional[OnCall] = None
    ) -> None:
        """Replace ``owner.attr`` (module function or class method)."""
        own = attr in vars(owner)
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer._run(span, original, on_call, args, kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original if own else None))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- recording ----------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self._adopt_process()
        self.counts[name] = self.counts.get(name, 0) + value

    def _adopt_process(self) -> None:
        """In a freshly forked worker, drop the state inherited from the
        parent (its open spans and totals) and start a file of our own."""
        pid = os.getpid()
        if pid == self._pid:
            return
        self._pid = pid
        self._stack = []
        self.spans, self.edges, self.counts = {}, {}, {}
        self._dump_path = self.spool_dir / f"worker-{pid}-{uuid.uuid4().hex}.json"

    def _run(self, span: str, fn, on_call: Optional[OnCall], args, kwargs):
        self._adopt_process()
        frame = [span, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            # Inside the span, so a worker's dump below includes the counts.
            if on_call is not None:
                on_call(self, args, kwargs, result)
            return result
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            row = self.spans.setdefault(span, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += elapsed
            row[2] += elapsed - frame[1]
            if self._stack:
                parent = self._stack[-1]
                parent[1] += elapsed
                key = (parent[0], span)
                self.edges[key] = self.edges.get(key, 0.0) + elapsed
            elif self._dump_path is not None:
                self._dump()

    def _dump(self) -> None:
        doc = {
            "spans": self.spans,
            "edges": [[p, c, s] for (p, c), s in self.edges.items()],
            "counts": self.counts,
        }
        tmp = self._dump_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc))
        os.replace(tmp, self._dump_path)

    def collect_workers(self) -> None:
        """Fold every finished worker's file into the worker totals."""
        for path in sorted(self.spool_dir.glob("worker-*.json")):
            doc = json.loads(path.read_text())
            for name, (calls, total, own) in doc["spans"].items():
                row = self.worker_spans.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += own
            for parent, child, seconds in doc["edges"]:
                key = (parent, child)
                self.worker_edges[key] = self.worker_edges.get(key, 0.0) + seconds
            for name, value in doc["counts"].items():
                self.worker_counts[name] = self.worker_counts.get(name, 0) + value
            path.unlink()

    # -- reading ------------------------------------------------------------

    def span(self, name: str, *, workers: bool = True) -> Tuple[int, float, float]:
        """``(calls, total_s, self_s)`` of one span name."""
        rows = [self.spans.get(name)]
        if workers:
            rows.append(self.worker_spans.get(name))
        calls = sum(r[0] for r in rows if r)
        total = sum(r[1] for r in rows if r)
        own = sum(r[2] for r in rows if r)
        return int(calls), total, own

    def edge(self, parent: str, child: str) -> float:
        key = (parent, child)
        return self.edges.get(key, 0.0) + self.worker_edges.get(key, 0.0)

    def count(self, name: str) -> float:
        return self.counts.get(name, 0) + self.worker_counts.get(name, 0)


# --------------------------------------------------------------------------
# the layer boundaries
# --------------------------------------------------------------------------

def _count_point(tracer: Tracer, _args, _kwargs, state) -> None:
    tracer.add("pipeline.points", state.point is not None)


def _count_sim_rows(tracer: Tracer, rows) -> None:
    for stats in rows:
        tracer.add("sim.repcycles", stats.cycles + stats.drain_cycles)
        tracer.add("sim.flits", stats.flits_delivered)


def _count_batch(tracer: Tracer, _args, _kwargs, rows) -> None:
    tracer.add("sim.batch.reps", len(rows))
    _count_sim_rows(tracer, rows)


def _count_solo(tracer: Tracer, _args, _kwargs, stats) -> None:
    _count_sim_rows(tracer, [stats])


def _count_get(tracer: Tracer, _args, _kwargs, entry) -> None:
    tracer.add("store.hits", entry is not None)


def _count_put(tracer: Tracer, _args, _kwargs, written) -> None:
    tracer.add("store.bytes_written", int(written))


def _count_tasks(tracer: Tracer, _args, _kwargs, results) -> None:
    tracer.add("executor.tasks", len(results))
    tracer.add("executor.cached", sum(1 for r in results if r.cached))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from.

    Names imported into another module are wrapped where the caller looks
    them up (``kway_min_cut`` in both phase modules, ``run_tasks`` in the
    sweep module), so every call path of the workloads is seen once.
    """
    from repro.campaign import journal, service
    from repro.core import frequency_sweep, phase1, phase2, pipeline
    from repro.engine import executor, locks, store
    from repro.floorplan import tsv_macros
    from repro.lp import model
    from repro.noc import batchengine, simengine, simulator

    tracer.wrap(phase1, "kway_min_cut", "partition")
    tracer.wrap(phase2, "kway_min_cut", "partition")
    for name, cls in pipeline.STAGE_REGISTRY.items():
        tracer.wrap(cls, "run", f"stage.{name}")
    tracer.wrap(pipeline.Pipeline, "evaluate", "pipeline", _count_point)
    tracer.wrap(model.LinearProgram, "solve", "lp")
    tracer.wrap(pipeline, "insert_components", "floorplan.insert")
    tracer.wrap(tsv_macros, "insert_components", "floorplan.insert")
    tracer.wrap(pipeline, "place_tsv_macros", "floorplan.tsv")
    sim_cls = simulator.WormholeSimulator
    tracer.wrap(sim_cls, "run_batch", "sim.batch", _count_batch)
    tracer.wrap(sim_cls, "run", "sim.solo", _count_solo)
    tracer.wrap(batchengine, "build_schedule", "sim.schedule")
    tracer.wrap(simengine, "build_schedule", "sim.schedule")
    tracer.wrap(store.ResultStore, "get", "store.get", _count_get)
    tracer.wrap(store.ResultStore, "put", "store.put", _count_put)
    tracer.wrap(executor, "run_tasks", "executor", _count_tasks)
    tracer.wrap(frequency_sweep, "run_tasks", "executor", _count_tasks)
    tracer.wrap(journal.JobJournal, "append", "journal.append")
    tracer.wrap(service.CampaignService, "step", "service.step")
    tracer.wrap(locks.FileLock, "acquire", "lock.wait")
