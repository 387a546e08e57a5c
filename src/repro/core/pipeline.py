"""The staged synthesis pipeline — the Fig. 3 flow as explicit components.

The paper's flow is a sequence of distinct stages (connectivity candidate →
topology skeleton → deadlock-free paths → switch-position LP → floorplan
insertion → latency re-check → metrics). This module models each stage as a
:class:`Stage` object operating on an immutable per-run :class:`FlowContext`
and a mutable per-candidate :class:`CandidateState`. The sequence is fixed
(:data:`STAGE_REGISTRY`, in Fig. 3 order); once every stage has passed,
:meth:`Pipeline.evaluate` assembles the candidate's :class:`DesignPoint`
from the state and the run's config. Every stage is

* **measurable** — every stage execution is timed into a
  :class:`StageTimings` accumulator (``repro.cli synth --stage-timings``);
* **memoised** — each stage declares its inputs, so a stage cache serves
  its outputs wherever those inputs hash identically;
* **parallelizable** — candidate evaluation is a pure function of
  ``(context, request)``, so independent candidates fan out across the
  :mod:`repro.engine` process pool (``jobs=N``) with deterministic merging:
  serial and parallel runs produce identical :class:`SynthesisResult`\\ s.

A candidate is named by a small :class:`CandidateRequest` — phase, switch
counts and θ — and the first stage, ``partition``, builds its core-to-switch
assignment from that name. The switch-count sweep is two plain functions
over a batch evaluator: :func:`_phase1` retries failed switch counts at each
next θ (Algorithm 1, Steps 11-19); :func:`_phase2` is a single round that
records never-met switch counts.

Entry point: :func:`run_synthesis`; ``repro.core.synthesize`` builds the
context from a spec pair and calls it.
"""

from __future__ import annotations

import math
import sys
import time
import uuid
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.core.assignment import Assignment, violates_ill_precheck
from repro.core.config import SynthesisConfig
from repro.core.design_point import DesignPoint, SynthesisResult
from repro.core.paths import build_topology_skeleton, compute_paths
from repro.core.phase1 import THETA_VALUES, phase1_candidate, switch_count_bounds
from repro.core.phase2 import phase2_candidate, phase2_switch_counts
from repro.core.placement import optimise_switch_positions
from repro.errors import (
    PathComputationError,
    SpecError,
    SynthesisError,
)
from repro.floorplan.constrained import constrained_insert
from repro.floorplan.geometry import Rect
from repro.floorplan.inserter import NewComponent, insert_components
from repro.floorplan.placement import ChipFloorplan, PlacedComponent
from repro.floorplan.tsv_macros import VerticalLinkSpec, place_tsv_macros
from repro.graphs.comm_graph import CommGraph, build_comm_graph
from repro.models.library import NocLibrary, default_library
from repro.noc.metrics import (
    NocMetrics,
    compute_metrics,
    flow_latency_cycles,
    link_lengths_from_positions,
)
from repro.noc.topology import Topology
from repro.spec.comm_spec import CommSpec
from repro.spec.core_spec import CoreSpec
from repro.spec.validate import validate_specs

#: Progress callback: ``(done_in_round, round_total, candidate_key)``.
ProgressFn = Callable[[int, int, object], None]


# --------------------------------------------------------------------------
# run context and per-candidate state
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowContext:
    """Everything a stage may read, fixed for one synthesis run.

    Immutable by convention *and* by dataclass freezing: stages receive the
    context plus a per-candidate :class:`CandidateState` and must confine
    every mutation to the state. That is what makes candidate evaluation a
    pure function, and therefore safe to fan out across processes.
    """

    core_spec: CoreSpec
    comm_spec: CommSpec
    graph: CommGraph
    library: NocLibrary
    config: SynthesisConfig
    core_centers: Dict[int, Tuple[float, float]]
    die_bounds: Tuple[float, float]

    @classmethod
    def build(
        cls,
        core_spec: CoreSpec,
        comm_spec: CommSpec,
        library: Optional[NocLibrary] = None,
        config: Optional[SynthesisConfig] = None,
    ) -> "FlowContext":
        """Validate the specs and derive the shared run context."""
        validate_specs(core_spec, comm_spec)
        library = library if library is not None else default_library()
        config = config if config is not None else SynthesisConfig()
        graph = build_comm_graph(core_spec, comm_spec)
        centers = {i: core.center for i, core in enumerate(core_spec)}
        width = max(c.x + c.width for c in core_spec)
        height = max(c.y + c.height for c in core_spec)
        if width <= 0 or height <= 0:
            raise SpecError("core positions must span a positive die area")
        return cls(
            core_spec=core_spec,
            comm_spec=comm_spec,
            graph=graph,
            library=library,
            config=config,
            core_centers=centers,
            die_bounds=(width, height),
        )


@dataclass(frozen=True)
class CandidateRequest:
    """One candidate of the switch-count sweep, named by what the
    ``partition`` stage needs to build it: the phase, the switch counts
    (Phase 1: the one total; Phase 2: one per layer) and, for a Phase 1
    SPG retry, θ."""

    phase: str
    switch_counts: Tuple[int, ...]
    theta: Optional[float] = None

    @property
    def count(self) -> int:
        return sum(self.switch_counts)

    @property
    def key(self) -> Tuple[object, ...]:
        return (self.phase, self.count, self.theta)


@dataclass
class CandidateState:
    """Mutable scratch state threaded through the stages of one candidate."""

    request: CandidateRequest
    assignment: Optional[Assignment] = None
    topology: Optional[Topology] = None
    floorplan: Optional[ChipFloorplan] = None
    final_centers: Optional[Dict[int, Tuple[float, float]]] = None
    metrics: Optional[NocMetrics] = None
    #: Set by :meth:`Pipeline.evaluate` once every stage has passed.
    point: Optional[DesignPoint] = None
    failed_stage: Optional[str] = None
    failure_reason: str = ""
    #: Wall-clock seconds spent in each executed stage. For stages served
    #: from a stage cache this is the *original* execution time, replayed
    #: from the cached entry so warm runs still report timings.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: Names of stages whose results were served from a stage cache.
    cached_stages: List[str] = field(default_factory=list)
    #: Per-stage content fingerprints, recorded only when evaluating under
    #: a stage cache; diagnostic and test hook.
    stage_fingerprints: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failed_stage is None

    def outcome(self) -> "CandidateOutcome":
        return CandidateOutcome(
            point=self.point,
            failed_stage=self.failed_stage,
            failure_reason=self.failure_reason,
            stage_seconds=dict(self.stage_seconds),
            cached_stages=tuple(self.cached_stages),
        )


@dataclass
class CandidateOutcome:
    """The pickling-safe result of evaluating one candidate."""

    point: Optional[DesignPoint] = None
    failed_stage: Optional[str] = None
    failure_reason: str = ""
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    cached_stages: Tuple[str, ...] = ()


class StageFailure(Exception):
    """Raised inside a stage to reject the candidate (not an error)."""


# --------------------------------------------------------------------------
# stage timing collection
# --------------------------------------------------------------------------

class StageTimings:
    """Per-stage wall-clock accumulator (sample list per stage name).

    Samples served from a stage cache are counted separately: their
    seconds are the *original* execution times replayed from the cached
    entries, and :meth:`report`/:meth:`as_dict` surface how many of each
    stage's calls were cached (the ``(cached)`` column only appears when
    at least one sample was).
    """

    def __init__(self) -> None:
        self._samples: Dict[str, List[float]] = {}
        self._order: List[str] = []
        self._cached: Dict[str, int] = {}

    def add(self, name: str, seconds: float, *, cached: bool = False) -> None:
        if name not in self._samples:
            self._samples[name] = []
            self._order.append(name)
        self._samples[name].append(seconds)
        if cached:
            self._cached[name] = self._cached.get(name, 0) + 1

    def merge(
        self,
        stage_seconds: Mapping[str, float],
        cached: Sequence[str] = (),
    ) -> None:
        """Fold one candidate's ``{stage: seconds}`` dict (its
        :class:`CandidateOutcome`'s ``stage_seconds``, in-process or from a
        worker); ``cached`` names the stages served from a stage cache."""
        cached_set = set(cached)
        for name, seconds in stage_seconds.items():
            self.add(name, seconds, cached=name in cached_set)

    @property
    def names(self) -> List[str]:
        return list(self._order)

    def count(self, name: str) -> int:
        return len(self._samples.get(name, ()))

    def cached_count(self, name: str) -> int:
        return self._cached.get(name, 0)

    def total_s(self, name: str) -> float:
        return sum(self._samples.get(name, ()))

    @property
    def any_cached(self) -> bool:
        return any(self._cached.values())

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        doc = {}
        for name in self._order:
            row = {
                "total_s": round(self.total_s(name), 6),
                "count": self.count(name),
                "mean_ms": round(
                    1000.0 * self.total_s(name) / max(self.count(name), 1), 3
                ),
            }
            # Only present when stage caching was in play, so uncached
            # runs keep their historical document shape.
            if self.cached_count(name):
                row["cached"] = self.cached_count(name)
            doc[name] = row
        return doc

    def report(self) -> str:
        """An aligned plain-text per-stage breakdown."""
        with_cached = self.any_cached
        rows = [("stage", "calls", "total s", "mean ms")
                + (("cached",) if with_cached else ())]
        for name in self._order:
            row = (
                name,
                str(self.count(name)),
                f"{self.total_s(name):.3f}",
                f"{1000.0 * self.total_s(name) / max(self.count(name), 1):.2f}",
            )
            if with_cached:
                cached = self.cached_count(name)
                row += (f"({cached} cached)" if cached else "-",)
            rows.append(row)
        ncols = len(rows[0])
        widths = [max(len(r[c]) for r in rows) for c in range(ncols)]
        lines = ["per-stage timings:"]
        for i, row in enumerate(rows):
            lines.append(
                "  " + row[0].ljust(widths[0]) + "  "
                + "  ".join(row[c].rjust(widths[c]) for c in range(1, ncols))
            )
            if i == 0:
                lines.append("  " + "  ".join("-" * w for w in widths))
        return "\n".join(lines)


# --------------------------------------------------------------------------
# stages
# --------------------------------------------------------------------------

class Stage:
    """One step of the Fig. 3 flow.

    Subclasses set :attr:`name` and implement :meth:`run`, which either
    advances ``state`` or raises :class:`StageFailure` to reject the
    candidate. Stages must be stateless (or carry only immutable
    configuration): the stage cache fingerprints the instance itself, and
    an instance with no stable encoding is a
    :class:`~repro.errors.StoreError` under a stage cache.

    Every stage declares its **input signature** — the exact subset of
    :class:`FlowContext` / :class:`SynthesisConfig` /
    :class:`CandidateState` fields :meth:`run` reads — plus the state
    fields it writes and a per-stage code-version :attr:`salt`. The
    :class:`repro.engine.stagecache.StageCache` layer fingerprints these
    inputs (through the canonical store encoder) to serve a stage's
    outputs from disk at any design point whose inputs hash identically.
    Declarations must never *under*-report reads — a missing input means
    silently-stale hits; over-reporting only costs hit rate. A stage
    declares config fields one by one: nothing that reads the whole
    config object is a stage (the :class:`DesignPoint`, which carries
    it, is built by :meth:`Pipeline.evaluate` after the last stage). Bump
    :attr:`salt` whenever :meth:`run`'s behaviour changes
    (``tools/check_stage_salts.py`` enforces this), which invalidates the
    stage and every downstream stage. See ``docs/pipeline.md``.
    """

    name: str = ""
    #: Code-version salt: bump on any behavioural change to :meth:`run`.
    salt: str = "v1"
    #: :class:`FlowContext` fields :meth:`run` reads.
    context_inputs: Tuple[str, ...] = ()
    #: :class:`SynthesisConfig` fields :meth:`run` reads.
    config_inputs: Tuple[str, ...] = ()
    #: :class:`CandidateState` fields :meth:`run` reads.
    state_inputs: Tuple[str, ...] = ()
    #: :class:`CandidateState` fields :meth:`run` writes or mutates;
    #: replayed from the cached record on a hit.
    state_outputs: Tuple[str, ...] = ()

    def run(self, ctx: FlowContext, state: CandidateState) -> None:
        raise NotImplementedError


#: The :class:`SynthesisConfig` fields read by the skeleton/routing path
#: machinery (``repro.core.paths``). Frequency and link width shape link
#: capacity; the rest are pruning/routing policy. Floorplan-only knobs
#: (seed, floorplanner) are deliberately absent, so a floorplan ``seed``
#: bump reuses every upstream stage verbatim.
_PATHS_CONFIG_INPUTS: Tuple[str, ...] = (
    "frequency_mhz",
    "link_width_bits",
    "max_ill",
    "use_soft_thresholds",
    "flow_order",
)


class PartitionStage(Stage):
    """Core-to-switch connectivity: the PG or SPG cut of Algorithm 1 or the
    per-layer LPG cuts of Algorithm 2, as the request names it."""

    name = "partition"
    salt = "v1"
    context_inputs = ("graph",)
    config_inputs = ("alpha", "switch_layer_mode")
    state_inputs = ("request",)
    state_outputs = ("assignment",)

    def run(self, ctx: FlowContext, state: CandidateState) -> None:
        request = state.request
        if request.phase == "phase1":
            state.assignment = phase1_candidate(
                ctx.graph, ctx.config.alpha, ctx.config.switch_layer_mode,
                request.count, request.theta,
            )
        else:
            state.assignment = phase2_candidate(
                ctx.graph, ctx.config.alpha, request.switch_counts
            )


class IllPrecheckStage(Stage):
    """Pruning rule 3 (Sec. V-C): core links alone must respect max_ill."""

    name = "precheck"
    salt = "v1"
    context_inputs = ("graph",)
    config_inputs = ("max_ill",)
    state_inputs = ("assignment",)
    state_outputs = ()

    def run(self, ctx: FlowContext, state: CandidateState) -> None:
        if violates_ill_precheck(state.assignment, ctx.graph, ctx.config.max_ill):
            raise StageFailure(
                "core-to-switch links alone exceed the max_ill constraint"
            )


class SkeletonStage(Stage):
    """Materialise the topology skeleton and apply the pruning rules."""

    name = "skeleton"
    salt = "v1"
    context_inputs = ("graph", "library", "core_centers")
    config_inputs = _PATHS_CONFIG_INPUTS
    state_inputs = ("assignment",)
    state_outputs = ("topology",)

    def run(self, ctx: FlowContext, state: CandidateState) -> None:
        try:
            state.topology = build_topology_skeleton(
                state.assignment, ctx.graph, ctx.library, ctx.config,  # repro: noqa[RPL106] -- paths.py reads exactly _PATHS_CONFIG_INPUTS, pinned by test_pipeline_decl_paths_config_inputs
                ctx.core_centers,
            )
        except PathComputationError as exc:
            raise StageFailure(str(exc))


class RoutingStage(Stage):
    """Deadlock-free, constraint-respecting paths (Sec. VI / Algorithm 3)."""

    name = "routing"
    salt = "v1"
    context_inputs = ("graph", "library", "core_centers")
    config_inputs = _PATHS_CONFIG_INPUTS
    state_inputs = ("topology",)
    # compute_paths mutates the topology in place (routes, utilisation).
    state_outputs = ("topology",)

    def run(self, ctx: FlowContext, state: CandidateState) -> None:
        try:
            compute_paths(
                state.topology, ctx.graph, ctx.library, ctx.config,  # repro: noqa[RPL106] -- paths.py reads exactly _PATHS_CONFIG_INPUTS, pinned by test_pipeline_decl_paths_config_inputs
                ctx.core_centers,
            )
        except PathComputationError as exc:
            raise StageFailure(str(exc))


class PlacementLPStage(Stage):
    """Optimise switch positions with the Sec. VII LP."""

    name = "placement_lp"
    salt = "v1"
    context_inputs = ("core_centers", "die_bounds")
    config_inputs = ()
    state_inputs = ("topology",)
    # Switch positions are written back onto the topology's switches.
    state_outputs = ("topology",)

    def run(self, ctx: FlowContext, state: CandidateState) -> None:
        die_w, die_h = ctx.die_bounds
        optimise_switch_positions(
            state.topology, ctx.core_centers, die_w, die_h
        )


def vertical_link_specs(
    topology: Topology, floorplan: ChipFloorplan, core_spec: CoreSpec
) -> List[VerticalLinkSpec]:
    """Multi-layer links needing explicit intermediate TSV macros.

    Every such link is anchored at its top endpoint's placed position; a
    missing endpoint is a synthesis bug, not a default-to-origin situation.
    """
    specs: List[VerticalLinkSpec] = []
    for link in topology.links:
        if link.layers_crossed < 2:
            continue
        top_ep = link.src if link.src_layer > link.dst_layer else link.dst
        kind, index = top_ep
        name = f"sw{index}" if kind == "switch" else core_spec[index].name
        if not floorplan.has(name):
            raise SynthesisError(
                f"vertical link {link.id} endpoint {name!r} is missing from "
                "the floorplan; cannot anchor its TSV macro stack"
            )
        specs.append(
            VerticalLinkSpec(
                name=f"link{link.id}",
                lo_layer=link.lo_layer,
                hi_layer=link.hi_layer,
                top_center=floorplan.center_of(name),
            )
        )
    return specs


#: The search grid of the custom insertion routine (Sec. VII): candidate
#: spots within this radius of a component's ideal position, on this step.
SEARCH_RADIUS_MM = 1.0
GRID_STEP_MM = 0.1


class FloorplanStage(Stage):
    """Insert switches and TSV macros into the input core floorplan, then
    recompute positions and wire lengths from the final placement."""

    name = "floorplan"
    salt = "v2"
    context_inputs = ("core_spec", "library")
    config_inputs = (
        "seed",
        "floorplanner",
        "link_width_bits",  # sizes the TSV macro stacks
    )
    state_inputs = ("topology",)
    state_outputs = ("topology", "floorplan", "final_centers")

    def run(self, ctx: FlowContext, state: CandidateState) -> None:
        floorplan = self._insert_noc(ctx, state.topology)
        state.floorplan = floorplan
        state.final_centers = {
            i: floorplan.center_of(core.name)
            for i, core in enumerate(ctx.core_spec)
        }
        for sw in state.topology.switches:
            name = f"sw{sw.id}"
            if floorplan.has(name):
                sw.x, sw.y = floorplan.center_of(name)
        link_lengths_from_positions(state.topology, state.final_centers)

    def _insert_noc(self, ctx: FlowContext, topology: Topology) -> ChipFloorplan:
        floorplan = ChipFloorplan()
        num_layers = max(ctx.core_spec.num_layers, 1)
        for layer in range(num_layers):
            existing = [
                PlacedComponent(
                    name=core.name,
                    kind="core",
                    rect=Rect(core.x, core.y, core.width, core.height),
                    layer=layer,
                )
                for core in ctx.core_spec.cores_in_layer(layer)
            ]
            new_components = []
            for sw in topology.switches:
                if sw.layer != layer:
                    continue
                side = math.sqrt(
                    ctx.library.switch.area_mm2(
                        max(sw.size, ctx.library.switch.min_ports)
                    )
                )
                new_components.append(
                    NewComponent(
                        name=f"sw{sw.id}",
                        kind="switch",
                        width=side,
                        height=side,
                        ideal_center=(sw.x, sw.y),
                    )
                )
            if new_components:
                if ctx.config.floorplanner == "custom":
                    placed = insert_components(
                        existing,
                        new_components,
                        layer=layer,
                        search_radius=SEARCH_RADIUS_MM,
                        grid_step=GRID_STEP_MM,
                    )
                else:
                    placed = constrained_insert(
                        existing, new_components, layer=layer,
                        seed=ctx.config.seed,
                    )
            else:
                placed = existing
            for comp in placed:
                floorplan.add(comp)

        vertical_specs = vertical_link_specs(topology, floorplan, ctx.core_spec)
        if vertical_specs:
            floorplan = place_tsv_macros(
                floorplan,
                vertical_specs,
                ctx.library.tsv,
                ctx.config.link_width_bits,
                search_radius=SEARCH_RADIUS_MM,
                grid_step=GRID_STEP_MM,
            )
        return floorplan


class LatencyVerifyStage(Stage):
    """Re-check every flow's latency constraint on final wire lengths."""

    name = "verify"
    salt = "v1"
    context_inputs = ("graph", "library")
    config_inputs = ()
    state_inputs = ("topology",)
    state_outputs = ()

    def run(self, ctx: FlowContext, state: CandidateState) -> None:
        for (src, dst), flow in ctx.graph.edges.items():
            latency = flow_latency_cycles(
                state.topology, (src, dst), ctx.library
            )
            if latency > flow.latency + 1e-9:
                raise StageFailure(
                    f"flow ({src}, {dst}) misses its latency constraint "
                    f"after floorplanning ({latency:.2f} > {flow.latency:g})"
                )


class MetricsStage(Stage):
    """Evaluate power / latency / area on the final placement. It reads no
    config field, so no config change (the objective included) re-runs
    it; the design point is assembled after it by
    :meth:`Pipeline.evaluate`."""

    name = "metrics"
    salt = "v2"
    context_inputs = ("library",)
    config_inputs = ()
    state_inputs = ("topology", "final_centers")
    state_outputs = ("metrics",)

    def run(self, ctx: FlowContext, state: CandidateState) -> None:
        state.metrics = compute_metrics(
            state.topology, state.final_centers, ctx.library
        )


#: name -> stage class, in Fig. 3 order: the one stage sequence.
STAGE_REGISTRY: Dict[str, Type[Stage]] = {
    cls.name: cls for cls in (
        PartitionStage, IllPrecheckStage, SkeletonStage, RoutingStage,
        PlacementLPStage, FloorplanStage, LatencyVerifyStage, MetricsStage,
    )
}

#: The stage names of the Fig. 3 sequence, in execution order.
DEFAULT_STAGE_NAMES: Tuple[str, ...] = tuple(STAGE_REGISTRY)


#: The :class:`CandidateState` fields a :class:`DesignPoint` is built from.
_POINT_FIELDS: Tuple[str, ...] = (
    "assignment", "topology", "floorplan", "metrics",
)


class Pipeline:
    """The Fig. 3 stage sequence, evaluating one candidate at a time.

    ``stages`` defaults to one instance of each :data:`STAGE_REGISTRY`
    class; passing a sequence is the seam tests use to insert fake stages.
    """

    def __init__(self, stages: Optional[Sequence[Stage]] = None) -> None:
        if stages is None:
            stages = [cls() for cls in STAGE_REGISTRY.values()]
        self.stages: Tuple[Stage, ...] = tuple(stages)

    def evaluate(
        self,
        ctx: FlowContext,
        request: CandidateRequest,
        stage_cache=None,
    ) -> CandidateState:
        """Run every stage on a fresh state for ``request``; stop at the
        first rejection. Once every stage has passed, ``state.point`` is
        the :class:`DesignPoint` of the state's fields and ``ctx.config``.

        With a ``stage_cache`` (:class:`repro.engine.stagecache.StageCache`)
        every stage's fingerprint comes first
        (:meth:`~repro.engine.stagecache.StageCache.fingerprints`; an input
        with no stable encoding raises :class:`~repro.errors.StoreError`
        before any stage runs). The walk then resumes after the deepest
        stage that has a record (:meth:`_replay_plan`). The stages up to it
        are served from the cache and named in ``cached_stages``: only the
        records holding what later stages and the point read are loaded,
        and every served stage credits the *original* seconds the deepest
        record holds for it to ``stage_seconds``; a recorded
        :class:`StageFailure` replays as the rejection. The stages after it
        run and checkpoint their outputs without a lookup. Hard
        (non-:class:`StageFailure`) errors propagate without caching.
        """
        state = CandidateState(request=request)
        fingerprints: List[str] = []
        if stage_cache is not None:
            fingerprints = stage_cache.fingerprints(self.stages, ctx, request)
            state.stage_fingerprints.update(
                zip((stage.name for stage in self.stages), fingerprints)
            )
        deepest, records = self._replay_plan(stage_cache, fingerprints)
        if records:
            state.stage_seconds.update(records[deepest][0].seconds)
        for i, stage in enumerate(self.stages):
            # Stages up to the deepest record are served without a
            # lookup: each with its own record when the rest of the walk
            # reads it, and with the seconds the deepest record holds.
            cached = i <= deepest
            record, nbytes = records.get(i, (None, 0))
            if stage_cache is not None:
                stage_cache.tally(stage.name, hit=cached, bytes_read=nbytes)
            if cached:
                if record is not None:
                    record.apply(state)
                state.cached_stages.append(stage.name)
            else:
                if records and i == deepest + 1:
                    _intern_kinds(state)
                start = time.perf_counter()
                try:
                    stage.run(ctx, state)
                except StageFailure as exc:
                    state.failed_stage = stage.name
                    state.failure_reason = str(exc)
                elapsed = time.perf_counter() - start
                state.stage_seconds[stage.name] = (
                    state.stage_seconds.get(stage.name, 0.0) + elapsed
                )
                if stage_cache is not None:
                    # Deterministic rejections are cached alongside
                    # successes (replaying them is exactly as correct and
                    # much cheaper); a hard error propagates unrecorded.
                    stage_cache.save(stage, fingerprints[i], state, elapsed)
            if state.failed_stage is not None:
                break
        if state.ok and state.metrics is not None:
            state.point = DesignPoint(
                config=ctx.config,
                **{name: getattr(state, name) for name in _POINT_FIELDS},
            )
        return state

    def _replay_plan(
        self, stage_cache, fingerprints: Sequence[str]
    ) -> Tuple[int, Dict[int, Tuple[object, int]]]:
        """Where a stage-cached walk resumes: ``(deepest, records)``.

        ``deepest`` indexes the deepest stage with a record (-1: none),
        found by asking the pack index from the back; no frame is read to
        find it, and the index is refreshed at most once, when it does not
        hold the last stage's record. Each fingerprint folds in the one
        before it, and a stage's record is written only once it has run,
        so that record proves every stage before it passed under these
        same fingerprints. ``records`` maps a stage index to its loaded
        ``(record, frame bytes)``: the deepest record and, unless it is a
        rejection, the last record at or before it to write each field
        that a later stage or the design point reads. If one of those
        cannot be loaded, the search starts again below it, and the walk
        recomputes from that producer on.
        """
        limit = len(fingerprints)
        last = limit - 1
        while limit > 0:
            deepest = next((
                i for i in range(limit - 1, -1, -1)
                if stage_cache.store.indexed(fingerprints[i], refresh=i == last)
            ), -1)
            if deepest < 0:
                break
            records: Dict[int, Tuple[object, int]] = {}
            for i in self._replay_reads(deepest):
                hit = stage_cache.load(self.stages[i], fingerprints[i])
                if hit is None:
                    limit = i
                    break
                records[i] = hit
                if hit[0].failed:
                    return deepest, records
            else:
                return deepest, records
        return -1, {}

    def _replay_reads(self, deepest: int) -> List[int]:
        """``deepest``, then (in stage order) the last stage at or before
        it to write each field that the stages after it read before
        writing it, or that the design point reads."""
        needed: set = set()
        written: set = set()
        for stage in self.stages[deepest + 1:]:
            needed.update(set(stage.state_inputs) - written)
            written.update(stage.state_outputs)
        needed.update(set(_POINT_FIELDS) - written)
        producer: Dict[str, int] = {}
        for i, stage in enumerate(self.stages[: deepest + 1]):
            for name in stage.state_outputs:
                producer[name] = i
        reads = {producer[name] for name in needed if name in producer}
        return [deepest] + sorted(reads - {deepest})


def _intern_kinds(state: CandidateState) -> None:
    """Give replayed records' unpickled kind strings back their interned
    literals, which the stages still to run write: the point then
    pickles to the bytes of its cold twin."""
    if state.topology is not None:
        state.topology.intern_kinds()
    for component in state.floorplan or ():
        object.__setattr__(component, "kind", sys.intern(component.kind))


# --------------------------------------------------------------------------
# the two candidate phases
# --------------------------------------------------------------------------

def _evaluate_round(
    evaluate: Callable[[Sequence[CandidateRequest]], List[CandidateOutcome]],
    requests: Sequence[CandidateRequest],
    result: SynthesisResult,
) -> Tuple[List[int], List[int]]:
    """Evaluate one round as one batch (one ``run_tasks`` call), append
    its points to ``result`` in submission order, and return the
    switch counts that were met and that failed."""
    met: List[int] = []
    failed: List[int] = []
    for request, outcome in zip(requests, evaluate(requests)):
        if outcome.point is None:
            failed.append(request.count)
        else:
            result.points.append(outcome.point)
            met.append(request.count)
    return met, failed


def _mark_unmet(result: SynthesisResult, unmet: set) -> None:
    result.unmet_switch_counts = sorted(
        set(result.unmet_switch_counts) | unmet
    )


def _phase1(ctx: FlowContext, evaluate: Callable, result: SynthesisResult) -> None:
    """Algorithm 1: one PG candidate per switch count, then one SPG round
    per θ for the counts still failing (the Unmet-set retry, Steps 11-19).
    Counts that fail at the last θ are unmet."""
    lo, hi = switch_count_bounds(ctx.graph, ctx.config)
    failed = list(range(lo, hi + 1))
    for theta in (None,) + THETA_VALUES:
        if not failed:
            break
        _, failed = _evaluate_round(evaluate, [
            CandidateRequest("phase1", (count,), theta) for count in failed
        ], result)
    _mark_unmet(result, set(failed))


def _phase2(ctx: FlowContext, evaluate: Callable, result: SynthesisResult) -> None:
    """Algorithm 2: one round over all layer-local candidates. A switch
    count is unmet only if *no* candidate at that count produced a point."""
    met, failed = _evaluate_round(evaluate, [
        CandidateRequest("phase2", counts)
        for counts in phase2_switch_counts(ctx.graph, ctx.config, ctx.library)
    ], result)
    _mark_unmet(result, set(failed) - set(met))


# --------------------------------------------------------------------------
# candidate rounds on the engine, and the run entry point
# --------------------------------------------------------------------------

def _make_batch_evaluator(
    ctx: FlowContext,
    token: str,
    jobs: Optional[int],
    progress: Optional[ProgressFn],
    timings: Optional[StageTimings],
    supervision,
    quarantine_log: Optional[List],
    stage_cache,
) -> Callable[[Sequence[CandidateRequest]], List[CandidateOutcome]]:
    """Evaluate a round as one ``run_tasks`` call of
    :class:`~repro.engine.tasks.CandidateTask`\\ s under the run's context
    ``token`` (in-process at ``jobs=1``, else on the pool), returning
    outcomes in submission order."""
    # Imported lazily: repro.engine depends on repro.core, not vice versa.
    from repro.engine import executor
    from repro.engine.tasks import CandidateTask

    cache_dir, cache_salt = (
        stage_cache.spec() if stage_cache is not None else (None, None)
    )

    def evaluate(requests: Sequence[CandidateRequest]) -> List[CandidateOutcome]:
        tasks = [
            CandidateTask(
                key=req.key,
                core_spec=ctx.core_spec,
                comm_spec=ctx.comm_spec,
                config=ctx.config,
                request=req,
                library=ctx.library,
                context_token=token,
                stage_cache_dir=cache_dir,
                stage_cache_salt=cache_salt,
            )
            for req in requests
        ]
        outcomes = []
        for task_result in executor.run_tasks(
            tasks, jobs=jobs, progress=progress, supervision=supervision,
        ):
            outcome = task_result.result
            if task_result.error is not None:
                # A quarantined/timed-out candidate (on_error="quarantine")
                # becomes a failed outcome, so the synthesis completes on
                # the surviving candidates.
                if quarantine_log is not None:
                    quarantine_log.append(
                        (task_result.key, str(task_result.error))
                    )
                outcome = CandidateOutcome(
                    failed_stage="supervision",
                    failure_reason=str(task_result.error),
                )
            if timings is not None:
                timings.merge(outcome.stage_seconds, outcome.cached_stages)
            if stage_cache is not None:
                stage_cache.fold(task_result.stage_cache)
            outcomes.append(outcome)
        return outcomes

    return evaluate


def run_synthesis(
    ctx: FlowContext,
    *,
    jobs: Optional[int] = 1,
    progress: Optional[ProgressFn] = None,
    timings: Optional[StageTimings] = None,
    supervision=None,
    quarantine_log: Optional[List] = None,
    stage_cache=None,
) -> SynthesisResult:
    """Run the Fig. 3 flow and return all valid design points.

    Args:
        ctx: The run context (see :meth:`FlowContext.build`).
        jobs: Candidate-evaluation worker processes — ``1`` (default)
            in-process, ``None``/``0`` one per CPU, ``n >= 2`` a pool of n.
            Results are bit-identical regardless of ``jobs``; a negative
            one raises :class:`~repro.errors.EngineError` before any work.
        progress: Optional per-candidate callback
            ``(done_in_round, round_total, key)``.
        timings: Optional :class:`StageTimings` accumulator to fill.
        supervision: Optional :class:`repro.engine.supervise.Supervision`
            of the candidate evaluations. Its ``retries`` re-run a
            candidate whose evaluation raised, at any ``jobs``; its
            deadline applies to pool runs only. Under
            ``on_error="quarantine"`` a candidate lost to a worker crash
            or deadline is treated as a failed candidate, not a fatal
            error.
        quarantine_log: Optional list collecting ``(key, message)`` pairs
            for candidates lost to supervision.
        stage_cache: Optional
            :class:`repro.engine.stagecache.StageCache` memoising
            individual stage outputs across runs and sweep points (see
            :meth:`Pipeline.evaluate`). Results stay bit-identical with
            or without it, and its counters read the same at any ``jobs``.

    Every round of candidates is one
    :func:`~repro.engine.executor.run_tasks` call, whatever ``jobs`` is.
    """
    # Imported lazily: repro.engine depends on repro.core, not vice versa.
    from repro.engine.executor import resolve_jobs
    from repro.engine.tasks import release_context, seed_context

    resolve_jobs(jobs)  # judged before any work, even a round of none
    token = uuid.uuid4().hex
    evaluate = _make_batch_evaluator(
        ctx, token, jobs, progress, timings, supervision, quarantine_log,
        stage_cache,
    )
    result = SynthesisResult()
    phase = ctx.config.phase
    seed_context(token, ctx, stage_cache)
    try:
        if phase in ("auto", "phase1"):
            _phase1(ctx, evaluate, result)
        if phase == "phase2" or (phase == "auto" and result.is_empty):
            _phase2(ctx, evaluate, result)
    finally:
        release_context(token)
    return result
