"""Definitions of the paper's benchmarks (Sec. VIII), rebuilt synthetically.

Core dimensions are drawn deterministically from role-dependent ranges
(processors ~1.1 x 1.0 mm, memories larger and "irregular", peripherals
small) and every traffic pattern follows the published structure. Bandwidth
units are MB/s, latency constraints are in cycles; with 32-bit links at
400 MHz the link capacity is 1600 MB/s, so individual flows stay well below
capacity as in the original designs.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.bench.builder import Benchmark, build_benchmark
from repro.rng import make_rng
from repro.spec.comm_spec import MessageType, TrafficFlow

CoreDef = Tuple[str, float, float]

#: Total request bandwidth of the distributed D_36_x designs (MB/s); "the
#: total bandwidth is the same in the three benchmarks" (Sec. VIII-B).
D36_TOTAL_BW = 14400.0


def _sized(name: str, role: str, seed: int) -> CoreDef:
    """Deterministic 'irregular' core dimensions by role."""
    rng = make_rng(seed, "core-size", name)
    if role == "proc":
        w, h = rng.uniform(1.0, 1.4), rng.uniform(0.9, 1.2)
    elif role == "mem":
        w, h = rng.uniform(1.3, 2.0), rng.uniform(1.2, 1.8)
    elif role == "accel":
        w, h = rng.uniform(0.8, 1.2), rng.uniform(0.7, 1.0)
    else:  # peripheral
        w, h = rng.uniform(0.5, 0.9), rng.uniform(0.5, 0.8)
    return (name, round(w, 3), round(h, 3))


def _req(src: str, dst: str, bw: float, lat: float) -> TrafficFlow:
    return TrafficFlow(src=src, dst=dst, bandwidth=bw, latency=lat,
                       message_type=MessageType.REQUEST)


def _resp(src: str, dst: str, bw: float, lat: float) -> TrafficFlow:
    return TrafficFlow(src=src, dst=dst, bandwidth=bw, latency=lat,
                       message_type=MessageType.RESPONSE)


# --------------------------------------------------------------------------
# D_26_media — 26-core multimedia + wireless SoC (Sec. VIII-A)
# --------------------------------------------------------------------------

def d26_media(seed: int = 0, floorplan_moves: int = 4000) -> Benchmark:
    """The realistic multimedia/wireless benchmark of the case study.

    "The system includes ARM, DSP cores, multiple memory banks, DMA engine
    and several peripheral devices", performing base-band and multimedia
    processing; 26 irregular cores mapped onto three layers.
    """
    roles = {
        "ARM": "proc",
        "DSP0": "proc", "DSP1": "proc", "DSP2": "proc", "DSP3": "proc",
        "ACC0": "accel", "ACC1": "accel", "ACC2": "accel",
        "VIT": "accel", "TUR": "accel", "RF": "accel",
        "DMA": "accel", "SDRAM": "mem",
        "MEM0": "mem", "MEM1": "mem", "MEM2": "mem", "MEM3": "mem",
        "MEM4": "mem", "MEM5": "mem", "MEM6": "mem", "MEM7": "mem",
        "DISP": "periph", "CAM": "periph", "USB": "periph",
        "UART": "periph", "SPI": "periph",
    }
    cores = [_sized(name, role, seed) for name, role in roles.items()]

    flows: List[TrafficFlow] = []
    # ARM <-> its memories and the SDRAM controller.
    for mem, bw in (("MEM0", 320), ("MEM1", 240), ("SDRAM", 400)):
        flows.append(_req("ARM", mem, bw, 8))
        flows.append(_resp(mem, "ARM", bw * 0.75, 8))
    # DSP cluster: each DSP streams from one memory, into an accelerator
    # chain, and back out to another memory (multimedia pipeline).
    dsp_mems = [("DSP0", "MEM2", "MEM3"), ("DSP1", "MEM3", "MEM4"),
                ("DSP2", "MEM4", "MEM5"), ("DSP3", "MEM5", "MEM6")]
    for dsp, src_mem, dst_mem in dsp_mems:
        flows.append(_req(dsp, src_mem, 280, 10))
        flows.append(_resp(src_mem, dsp, 420, 10))
        flows.append(_req(dsp, dst_mem, 260, 10))
    # Accelerator pipeline (video): DSP0 -> ACC0 -> ACC1 -> ACC2 -> DISP.
    flows.append(_req("DSP0", "ACC0", 500, 6))
    flows.append(_req("ACC0", "ACC1", 520, 6))
    flows.append(_req("ACC1", "ACC2", 540, 6))
    flows.append(_req("ACC2", "DISP", 640, 6))
    # Base-band chain: RF -> VIT -> TUR -> DSP3 -> MEM7.
    flows.append(_req("RF", "VIT", 700, 5))
    flows.append(_req("VIT", "TUR", 560, 5))
    flows.append(_req("TUR", "DSP3", 420, 6))
    flows.append(_req("DSP3", "MEM7", 380, 8))
    # DMA moves data between memories and peripherals.
    for dst, bw in (("MEM0", 200), ("MEM6", 180), ("SDRAM", 260), ("USB", 90)):
        flows.append(_req("DMA", dst, bw, 12))
    flows.append(_req("ARM", "DMA", 60, 12))
    # Camera in, low-rate peripherals.
    flows.append(_req("CAM", "MEM2", 340, 8))
    for periph, bw in (("UART", 20), ("SPI", 30), ("USB", 80)):
        flows.append(_req("ARM", periph, bw, 14))
    flows.append(_req("USB", "SDRAM", 120, 12))
    flows.append(_req("DISP", "SDRAM", 160, 10))

    return build_benchmark(
        "d26_media", cores, flows, num_layers=3,
        description="26-core multimedia & wireless SoC (3 layers)",
        seed=seed, floorplan_moves=floorplan_moves,
    )


# --------------------------------------------------------------------------
# D_36_4 / D_36_6 / D_36_8 — distributed designs (Sec. VIII-B)
# --------------------------------------------------------------------------

def d36(
    flows_per_proc: int, seed: int = 0, floorplan_moves: int = 4000
) -> Benchmark:
    """18 processors + 18 memories; each processor talks to
    ``flows_per_proc`` memories; total bandwidth constant across variants."""
    if flows_per_proc not in (4, 6, 8):
        raise ValueError("the paper evaluates 4, 6 and 8 flows per processor")
    n = 18
    cores = [_sized(f"P{i}", "proc", seed) for i in range(n)]
    cores += [_sized(f"M{i}", "mem", seed) for i in range(n)]

    bw = D36_TOTAL_BW / (n * flows_per_proc)
    flows: List[TrafficFlow] = []
    for i in range(n):
        for k in range(flows_per_proc):
            # Deterministic spread: each processor hits a distinct set of
            # memories, overlapping with its neighbours'.
            m = (2 * i + 5 * k + k * k) % n
            # Avoid duplicate (i, m) pairs within a processor.
            tried = 0
            while any(
                f.src == f"P{i}" and f.dst == f"M{m}" for f in flows
            ) and tried < n:
                m = (m + 1) % n
                tried += 1
            flows.append(_req(f"P{i}", f"M{m}", bw, 10))

    return build_benchmark(
        f"d36_{flows_per_proc}", cores, flows, num_layers=3,
        layer_strategy="min_cut",
        description=(
            f"18 processors + 18 memories, {flows_per_proc} flows per "
            "processor (3 layers)"
        ),
        seed=seed, floorplan_moves=floorplan_moves,
    )


# --------------------------------------------------------------------------
# D_35_bot — bottleneck design (Sec. VIII-B)
# --------------------------------------------------------------------------

def d35_bot(seed: int = 0, floorplan_moves: int = 4000) -> Benchmark:
    """16 processors with private memories plus 3 shared memories all
    processors access."""
    n = 16
    cores = [_sized(f"P{i}", "proc", seed) for i in range(n)]
    cores += [_sized(f"M{i}", "mem", seed) for i in range(n)]
    cores += [_sized(f"S{j}", "mem", seed) for j in range(3)]

    flows: List[TrafficFlow] = []
    for i in range(n):
        flows.append(_req(f"P{i}", f"M{i}", 280, 6))
        flows.append(_resp(f"M{i}", f"P{i}", 360, 6))
        for j in range(3):
            flows.append(_req(f"P{i}", f"S{j}", 36, 14))
    return build_benchmark(
        "d35_bot", cores, flows, num_layers=3,
        description="bottleneck: 16 proc + 16 private + 3 shared memories",
        seed=seed, floorplan_moves=floorplan_moves,
    )


# --------------------------------------------------------------------------
# D_65_pipe and D_38_tvopd — pipelined designs (Sec. VIII-B)
# --------------------------------------------------------------------------

def d65_pipe(seed: int = 0, floorplan_moves: int = 4000) -> Benchmark:
    """65 cores communicating in a pipeline fashion."""
    n = 65
    cores = [
        _sized(f"C{i}", "proc" if i % 4 else "mem", seed) for i in range(n)
    ]
    flows = [_req(f"C{i}", f"C{i + 1}", 300, 10) for i in range(n - 1)]
    return build_benchmark(
        "d65_pipe", cores, flows, num_layers=4,
        layer_strategy="min_cut",
        description="65-core pipeline (4 layers)",
        seed=seed, floorplan_moves=floorplan_moves,
    )


def d38_tvopd(seed: int = 0, floorplan_moves: int = 4000) -> Benchmark:
    """38-core pipelined design where "each core communicates only to one or
    few other cores" (a video object-plane-decoder-like structure)."""
    n = 38
    cores = [
        _sized(f"C{i}", "accel" if i % 3 else "mem", seed) for i in range(n)
    ]
    rng = make_rng(seed, "tvopd-bw")
    flows: List[TrafficFlow] = []
    for i in range(n - 1):
        flows.append(_req(f"C{i}", f"C{i + 1}", round(rng.uniform(150, 350)), 10))
    # A few feed-forward branches (every 6th core skips ahead).
    for i in range(0, n - 8, 6):
        flows.append(_req(f"C{i}", f"C{i + 7}", round(rng.uniform(60, 140)), 14))
    return build_benchmark(
        "d38_tvopd", cores, flows, num_layers=3,
        layer_strategy="min_cut",
        description="38-core pipelined video decoder (3 layers)",
        seed=seed, floorplan_moves=floorplan_moves,
    )
