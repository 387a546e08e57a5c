"""Zero-load latency, power and area evaluation of a synthesized NoC.

This is the measurement code behind every table and figure of the paper's
evaluation: power is split into switch power, switch-to-switch link power and
core-to-switch link power (the three series of Figs. 10-11 and the columns of
Table I); latency is the zero-load flow latency averaged over all flows.

Latency accounting follows the paper's convention (Sec. VIII-A: a flow whose
cores share a switch has "a zero load latency of just one cycle"): each
switch traversal costs one cycle, a link costs extra cycles only when it is
pipelined beyond a single stage, and TSV crossings add their (negligible)
propagation delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.errors import SynthesisError
from repro.models.library import NocLibrary
from repro.noc.topology import Topology
from repro.units import flits_per_second


@dataclass
class NocMetrics:
    """Evaluation results for one design point."""

    switch_power_mw: float
    sw2sw_link_power_mw: float
    core2sw_link_power_mw: float
    avg_latency_cycles: float
    max_latency_cycles: float
    switch_area_mm2: float
    ni_area_mm2: float
    tsv_macro_area_mm2: float
    num_switches: int
    num_links: int
    num_vertical_links: int
    max_ill_used: int
    wire_lengths_mm: List[float] = field(default_factory=list)
    per_flow_latency: Dict[Tuple[int, int], float] = field(default_factory=dict)

    @property
    def link_power_mw(self) -> float:
        return self.sw2sw_link_power_mw + self.core2sw_link_power_mw

    @property
    def total_power_mw(self) -> float:
        return self.switch_power_mw + self.link_power_mw

    @property
    def noc_area_mm2(self) -> float:
        return self.switch_area_mm2 + self.ni_area_mm2 + self.tsv_macro_area_mm2


def link_lengths_from_positions(
    topology: Topology,
    core_centers: Mapping[int, Tuple[float, float]],
) -> None:
    """Fill each link's planar length from endpoint positions (in place).

    Core positions come from the floorplan; switch positions must already be
    set (by the placement LP and insertion routine). The planar length is the
    Manhattan distance of the (x, y) projections; the vertical portion is
    modelled separately through ``layers_crossed``.
    """
    for link in topology.links:
        src_xy = _endpoint_xy(topology, link.src, core_centers)
        dst_xy = _endpoint_xy(topology, link.dst, core_centers)
        link.length_mm = abs(src_xy[0] - dst_xy[0]) + abs(src_xy[1] - dst_xy[1])


def _endpoint_xy(
    topology: Topology,
    endpoint,
    core_centers: Mapping[int, Tuple[float, float]],
) -> Tuple[float, float]:
    kind, index = endpoint
    if kind == "core":
        try:
            return core_centers[index]
        except KeyError as exc:
            raise SynthesisError(f"no position for core {index}") from exc
    return topology.switches[index].center


def flow_latency_cycles(
    topology: Topology,
    flow: Tuple[int, int],
    library: NocLibrary,
) -> float:
    """Zero-load latency of one routed flow, in cycles."""
    try:
        link_ids = topology.routes[flow]
    except KeyError as exc:
        raise SynthesisError(f"flow {flow} has no route") from exc

    freq = topology.frequency_mhz
    latency = 0.0
    latency += library.switch.delay_cycles() * len(topology.switch_routes[flow])
    for lid in link_ids:
        link = topology.links[lid]
        stages = library.link.pipeline_stages(link.length_mm, freq)
        latency += max(0, stages - 1)
        if link.is_vertical:
            latency += library.tsv.delay_cycles(link.layers_crossed, freq)
    return latency


def compute_metrics(
    topology: Topology,
    core_centers: Mapping[int, Tuple[float, float]],
    library: NocLibrary,
) -> NocMetrics:
    """Evaluate power, latency and area of a routed, placed topology.

    ``link_lengths_from_positions`` must have been called (or lengths set
    otherwise) before this.
    """
    freq = topology.frequency_mhz
    width = topology.width_bits
    # Model energies are calibrated per 32-bit flit; wider flits toggle
    # proportionally more wires and crossbar bits.
    width_factor = width / 32.0

    # --- switch power ------------------------------------------------------
    switch_load: Dict[int, float] = {sw.id: 0.0 for sw in topology.switches}
    for flow, switch_ids in topology.switch_routes.items():
        bw = _flow_bandwidth(topology, flow)
        rate = flits_per_second(bw, width)
        for sid in switch_ids:
            switch_load[sid] += rate

    switch_power = 0.0
    switch_area = 0.0
    for sw in topology.switches:
        size = max(sw.size, library.switch.min_ports)
        switch_power += library.switch.power_mw(
            size, freq, switch_load[sw.id] * width_factor
        )
        switch_area += library.switch.area_mm2(size)

    # --- link power ---------------------------------------------------------
    sw2sw_power = 0.0
    core2sw_power = 0.0
    wire_lengths: List[float] = []
    for link in topology.links:
        rate = flits_per_second(link.load_mbps, width) * width_factor
        power = (
            library.link.static_power_mw(link.length_mm) * width_factor
            + library.link.traffic_power_mw(link.length_mm, rate)
        )
        if link.is_vertical:
            power += library.tsv.traffic_power_mw(link.layers_crossed, rate)
            power += library.tsv.static_mw_per_link * link.layers_crossed * width_factor
        if link.is_core_link:
            core2sw_power += power
        else:
            sw2sw_power += power
        wire_lengths.append(link.length_mm)

    # NI power: one NI per attached core; traffic through it is the core's
    # injected + ejected bandwidth. Accounted to the core-to-switch category.
    # One pass over the routes accumulates both directions per core; the
    # per-core partial sums add in route order, exactly like the former
    # per-core rescans, so the totals are bit-identical.
    ni_count = len(topology.core_to_switch)
    in_bw: Dict[int, float] = {core: 0.0 for core in topology.core_to_switch}
    out_bw: Dict[int, float] = {core: 0.0 for core in topology.core_to_switch}
    for flow in topology.routes:
        bw = _flow_bandwidth(topology, flow)
        src, dst = flow
        if src in out_bw:
            out_bw[src] += bw
        if dst in in_bw:
            in_bw[dst] += bw
    for core in topology.core_to_switch:
        rate = flits_per_second(in_bw[core] + out_bw[core], width) * width_factor
        core2sw_power += rate * library.link.ni_energy_pj * 1e-3

    # --- latency -------------------------------------------------------------
    # Keyed by fresh (src, dst) tuples, not the route keys themselves: the
    # metrics then share no object with the topology, so a point assembled
    # from separate stage records pickles exactly like one computed whole.
    per_flow: Dict[Tuple[int, int], float] = {}
    for (src, dst) in topology.routes:
        per_flow[src, dst] = flow_latency_cycles(topology, (src, dst), library)
    if per_flow:
        avg_latency = sum(per_flow.values()) / len(per_flow)
        max_latency = max(per_flow.values())
    else:
        avg_latency = 0.0
        max_latency = 0.0

    # --- area ---------------------------------------------------------------
    macro_area = library.tsv.macro_area_mm2(width)
    tsv_area = sum(link.layers_crossed * macro_area for link in topology.links)

    return NocMetrics(
        switch_power_mw=switch_power,
        sw2sw_link_power_mw=sw2sw_power,
        core2sw_link_power_mw=core2sw_power,
        avg_latency_cycles=avg_latency,
        max_latency_cycles=max_latency,
        switch_area_mm2=switch_area,
        ni_area_mm2=ni_count * library.link.ni_area_mm2,
        tsv_macro_area_mm2=tsv_area,
        num_switches=len(topology.switches),
        num_links=len(topology.links),
        num_vertical_links=topology.num_vertical_links,
        max_ill_used=topology.max_ill_used,
        wire_lengths_mm=wire_lengths,
        per_flow_latency=per_flow,
    )


def _flow_bandwidth(topology: Topology, flow: Tuple[int, int]) -> float:
    """Bandwidth of a routed flow, recorded at routing time."""
    try:
        return topology.flow_bandwidth[flow]
    except KeyError as exc:
        raise SynthesisError(f"flow {flow} has no recorded bandwidth") from exc
