"""Extension experiment: validate the analytic latency model by simulation.

The paper's latency numbers (Table I) are analytic zero-load values. This
experiment injects traffic into the synthesized topology with the
flit-level wormhole simulator and compares:

* at light load the measured packet latency must approach the zero-load
  analytic value plus the packet serialisation time and the per-link
  pipeline registers the analytic convention does not count;
* as offered load rises towards the specification, queueing grows the gap —
  behaviour the analytic model deliberately ignores.

Beyond the classic per-flow Bernoulli process the sweep covers the whole
:mod:`repro.noc.scenarios` library (hotspot, bursty on–off, uniformly
scaled injection), and the (scenario × injection scale × seed) campaign
fans across the :mod:`repro.engine` process pool with a deterministic
merge: ``jobs=N`` returns bit-identical rows to a serial run.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.config import SynthesisConfig
from repro.engine import run_tasks
from repro.engine.executor import ProgressFn, resolve_jobs
from repro.engine.supervise import Supervision
from repro.engine.tasks import (
    SynthesisTask,
    check_sim_params,
    simulation_tasks,
)
from repro.experiments.common import (
    ExperimentResult,
    default_config_for,
    synthesize_cached,
)
from repro.models.library import NocLibrary, default_library
from repro.noc.metrics import flow_latency_cycles
from repro.noc.scenarios import ScenarioSpec


def run_simulation_validation(
    benchmark: str = "d26_media",
    injection_scales: Sequence[float] = (0.1, 0.3, 0.6, 1.0),
    cycles: int = 20_000,
    warmup: int = 2_000,
    config: Optional[SynthesisConfig] = None,
    packet_length_flits: int = 4,
    library: Optional[NocLibrary] = None,
    scenarios: Sequence[ScenarioSpec] = ("bernoulli",),
    seeds: Sequence[int] = (0,),
    jobs: Optional[int] = 1,
    progress: Optional[ProgressFn] = None,
    store=None,
    supervision: Optional[Supervision] = None,
    batch: Optional[int] = None,
) -> ExperimentResult:
    """One row per (scenario, offered load, seed): simulated vs analytic.

    Args:
        benchmark: Registry benchmark to synthesize (best 3-D power point).
        injection_scales: Offered-load multipliers on the specification.
        cycles / warmup: Injection horizon and statistics warmup.
        config: Synthesis configuration (default: the evaluation-wide one).
        packet_length_flits: Packet length in flits.
        library: Component library used for both synthesis-side analytics
            and the simulator (default: :func:`default_library`).
        scenarios: Traffic scenarios (names, ``"name:arg"`` specs or
            :class:`~repro.noc.scenarios.TrafficScenario` objects).
        seeds: Simulator seeds; each (scenario, scale, seed) triple is one
            independent run.
        jobs: Worker processes for the campaign (``1`` = serial, ``0`` /
            ``None`` = auto). Results are bit-identical either way.
        progress: Optional ``progress(done, total, key)`` callback.
        store: Optional :class:`~repro.engine.store.ResultStore`. Both the
            upstream synthesis and every (scenario × scale × seed) run are
            served from / checkpointed into the store, so a killed campaign
            rerun with the same store resumes where it stopped and merges
            bit-identically to an uninterrupted cold run.
        supervision: Optional :class:`~repro.engine.supervise.Supervision`
            of the campaign (see :func:`repro.engine.run_tasks`). Under
            ``on_error="quarantine"`` runs lost to a worker crash or
            deadline are dropped from the table and counted in its
            ``notes`` instead of aborting the campaign.
        batch: Replications per engine task. ``None``/``1`` runs one
            :class:`~repro.engine.tasks.SimulationTask` per seed; ``K > 1``
            groups each (scenario, scale)'s seeds into
            :class:`~repro.engine.tasks.BatchSimulationTask` chunks of up
            to ``K``. Rows, row order and store fingerprints are
            bit-identical either way — batching only changes how the work
            is packed.

    Raises:
        EngineError: before any synthesis, on a bad ``jobs``
            (:func:`~repro.engine.executor.resolve_jobs`) or any traffic
            knob :func:`~repro.engine.tasks.sim_param_issues` refuses (all
            of them named in one message).
    """
    # Before the prerequisite synthesis, not after it.
    resolve_jobs(jobs)
    check_sim_params(
        seeds=seeds, injection_scales=injection_scales, cycles=cycles,
        warmup=warmup, packet_length_flits=packet_length_flits, batch=batch,
    )
    if config is None:
        config = default_config_for(benchmark)
    point = _best_power_point(benchmark, config, store)
    # ``library`` reaches the tasks as given: a ``None`` there is what a
    # compiled ``sim`` campaign carries, so both share store addresses.
    analytic_library = library or default_library()
    zero_load = {
        flow: flow_latency_cycles(point.topology, flow, analytic_library)
        for flow in point.topology.routes
    }
    analytic_avg = sum(zero_load.values()) / len(zero_load)

    tasks = simulation_tasks(
        point.topology, scenarios, injection_scales, seeds, batch,
        library=library, packet_length_flits=packet_length_flits,
        cycles=cycles, warmup=warmup,
    )
    results = run_tasks(
        tasks, jobs=jobs, progress=progress, store=store,
        supervision=supervision,
    )

    table = ExperimentResult(
        name=f"Simulation vs analytic latency, {benchmark} (best 3-D point)",
        columns=[
            "scenario", "seed", "injection_scale",
            "delivered", "injected", "delivery_ratio",
            "sim_latency_cyc", "analytic_cyc", "gap_cyc",
        ],
        notes=(
            f"packet length {packet_length_flits} flits; the analytic "
            "convention charges 1 cycle per switch and only extra pipeline "
            "stages per link; runs drain in-flight packets past the horizon"
        ),
    )
    quarantined = [r for r in results if r.error is not None]
    if quarantined:
        lost = ", ".join(str(r.key) for r in quarantined)
        table.notes += (
            f"; {len(quarantined)} of {len(results)} run(s) quarantined "
            f"({lost}) — rows omitted"
        )
    for task_result in results:
        if task_result.error is not None:
            continue
        label, scale, seed = task_result.key
        if isinstance(seed, tuple):  # a batch task: one row per replication
            rows = zip(seed, task_result.result)
        else:
            rows = [(seed, task_result.result)]
        for row_seed, stats in rows:
            table.add(
                scenario=label,
                seed=row_seed,
                injection_scale=scale,
                delivered=stats.packets_delivered,
                injected=stats.packets_injected,
                delivery_ratio=stats.delivery_ratio,
                sim_latency_cyc=stats.avg_packet_latency,
                analytic_cyc=analytic_avg,
                gap_cyc=stats.avg_packet_latency - analytic_avg,
            )
    return table


def _best_power_point(benchmark: str, config: SynthesisConfig, store):
    """The campaign's synthesized topology, optionally via the store.

    Without a store this is the process-level memoised synthesis every
    experiment shares. With one, the synthesis itself becomes a store-backed
    engine task, so a warm campaign rerun skips it entirely — the two paths
    produce bit-identical design points (``synthesize`` is the same staged
    flow ``synthesize_cached`` runs).
    """
    if store is None:
        return synthesize_cached(benchmark, "3d", config).best_power()
    from repro.bench.registry import get_benchmark

    bench = get_benchmark(benchmark)
    task = SynthesisTask(
        key=("synthesis", benchmark),
        core_spec=bench.core_spec_3d,
        comm_spec=bench.comm_spec,
        config=config,
    )
    return run_tasks([task], jobs=1, store=store)[0].result.best_power()
