"""Parametric synthetic benchmark generator.

Beyond the paper's fixed designs, downstream users need arbitrary test
inputs: this module generates random SoCs with controllable structure. Four
traffic archetypes cover the paper's benchmark families:

* ``"distributed"`` — processors talking to scattered memories (D_36_x);
* ``"pipeline"``    — a processing chain (D_65_pipe, D_38_tvopd);
* ``"bottleneck"``  — private memories plus shared hotspots (D_35_bot);
* ``"random"``      — Erdos-Renyi-style random flows.

Everything is deterministic in the seed.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.bench.builder import Benchmark, build_benchmark
from repro.errors import SpecError
from repro.rng import make_rng
from repro.spec.comm_spec import MessageType, TrafficFlow

PATTERNS = ("distributed", "pipeline", "bottleneck", "random")


def synthetic_benchmark(
    num_cores: int,
    pattern: str = "random",
    num_layers: int = 2,
    *,
    seed: int = 0,
    total_bandwidth: float = 8000.0,
    latency_range: Tuple[float, float] = (8.0, 16.0),
    with_responses: bool = False,
    floorplan_moves: int = 2000,
    layer_strategy: str = "min_cut",
    max_port_bandwidth: float = 1200.0,
) -> Benchmark:
    """Generate a random benchmark with the requested structure.

    Args:
        num_cores: Total core count (>= 4).
        pattern: One of :data:`PATTERNS`.
        num_layers: 3-D layer count of the stacked variant.
        seed: Determinism seed (sizes, flows, floorplans).
        total_bandwidth: Sum of request-flow bandwidths in MB/s.
        latency_range: Uniform range for latency constraints (cycles).
        with_responses: Add a response flow for every request.
        floorplan_moves: Annealing budget for the generated floorplans.
        layer_strategy: Layer assignment strategy (see
            :func:`repro.bench.layer_assignment.assign_layers`).
        max_port_bandwidth: Cap on any single core's total injected or
            ejected bandwidth (MB/s). A core talks to the NoC through one
            NI link, so demands above link capacity are physically
            unsatisfiable; when the requested ``total_bandwidth`` would
            breach the cap (hotspot patterns), every flow is scaled down
            proportionally — the realised total is then below the request.
    """
    if num_cores < 4:
        raise SpecError(f"need at least 4 cores, got {num_cores}")
    if pattern not in PATTERNS:
        raise SpecError(f"unknown pattern {pattern!r} (use one of {PATTERNS})")
    if total_bandwidth <= 0:
        raise SpecError("total bandwidth must be positive")
    lo_lat, hi_lat = latency_range
    if lo_lat <= 0 or hi_lat < lo_lat:
        raise SpecError(f"invalid latency range {latency_range}")

    rng = make_rng(seed, "synthetic", pattern, num_cores)
    cores = _make_cores(num_cores, pattern, seed)
    pairs = _make_pairs(num_cores, pattern, rng, one_way=with_responses)
    if not pairs:
        raise SpecError("pattern generated no flows; increase num_cores")

    weights = [rng.uniform(0.5, 1.5) for _ in pairs]
    scale = total_bandwidth / sum(weights)

    # Respect per-core NI capacity: find the most loaded port and shrink
    # every flow proportionally if it would exceed the cap.
    inbound = [0.0] * num_cores
    outbound = [0.0] * num_cores
    for (src, dst), weight in zip(pairs, weights):
        outbound[src] += weight * scale
        inbound[dst] += weight * scale
    worst = max(max(inbound), max(outbound))
    if worst > max_port_bandwidth:
        scale *= max_port_bandwidth / worst

    flows: List[TrafficFlow] = []
    for (src, dst), weight in zip(pairs, weights):
        latency = round(rng.uniform(lo_lat, hi_lat), 1)
        bw = round(weight * scale, 1)
        flows.append(TrafficFlow(
            src=f"C{src}", dst=f"C{dst}", bandwidth=bw, latency=latency,
        ))
        if with_responses:
            flows.append(TrafficFlow(
                src=f"C{dst}", dst=f"C{src}",
                bandwidth=round(bw * rng.uniform(0.4, 0.9), 1),
                latency=latency,
                message_type=MessageType.RESPONSE,
            ))

    return build_benchmark(
        f"synthetic_{pattern}_{num_cores}c_{num_layers}l_s{seed}",
        cores,
        flows,
        num_layers=num_layers,
        description=f"synthetic {pattern} design ({num_cores} cores)",
        seed=seed,
        layer_strategy=layer_strategy,
        floorplan_moves=floorplan_moves,
    )


# --------------------------------------------------------------------------
# internals
# --------------------------------------------------------------------------

def _make_cores(num_cores: int, pattern: str, seed: int):
    """Role-tagged core dimensions: every other core a memory for the
    memory-centric patterns, mixed roles otherwise."""
    from repro.bench.suites import _sized

    cores = []
    for i in range(num_cores):
        if pattern in ("distributed", "bottleneck"):
            role = "mem" if i % 2 else "proc"
        elif pattern == "pipeline":
            role = "accel" if i % 3 else "mem"
        else:
            role = ("proc", "mem", "accel", "periph")[i % 4]
        cores.append(_sized(f"C{i}", role, seed))
    return cores


def _make_pairs(
    num_cores: int, pattern: str, rng, *, one_way: bool = False
) -> List[Tuple[int, int]]:
    """Request (src, dst) pairs, at most one per ordered pair.

    ``one_way`` also refuses a pair whose reverse is already taken, so a
    response flow never duplicates a request. A refused pair still spends
    its RNG draws, so the specs without responses do not change.
    """
    pairs: List[Tuple[int, int]] = []
    seen = set()

    def add(src: int, dst: int) -> None:
        if one_way and (dst, src) in seen:
            return
        if src != dst and (src, dst) not in seen:
            seen.add((src, dst))
            pairs.append((src, dst))

    if pattern == "pipeline":
        for i in range(num_cores - 1):
            add(i, i + 1)
        # A few skip connections.
        for i in range(0, num_cores - 4, 5):
            add(i, i + 3)
    elif pattern == "distributed":
        procs = [i for i in range(num_cores) if i % 2 == 0]
        mems = [i for i in range(num_cores) if i % 2 == 1]
        flows_per_proc = max(2, min(4, len(mems) - 1))
        for p in procs:
            targets = rng.sample(mems, min(flows_per_proc, len(mems)))
            for m in targets:
                add(p, m)
    elif pattern == "bottleneck":
        procs = [i for i in range(num_cores) if i % 2 == 0]
        mems = [i for i in range(num_cores) if i % 2 == 1]
        shared = mems[: max(1, len(mems) // 5)]
        private = mems[len(shared):]
        for k, p in enumerate(procs):
            if k < len(private):
                add(p, private[k])
            for s in shared:
                add(p, s)
    else:  # random
        target_flows = max(num_cores, int(1.5 * num_cores))
        attempts = 0
        while len(pairs) < target_flows and attempts < 20 * target_flows:
            attempts += 1
            add(rng.randrange(num_cores), rng.randrange(num_cores))
    return pairs
