"""The synthesized-NoC data model.

A :class:`Topology` holds switches, unidirectional physical links and the
route (link sequence) of every traffic flow. It also maintains the two
resources the paper's constraints police:

* **switch port counts** (``switch_size_inp`` / ``switch_size_out`` of
  Def. 6) — grown as cores are attached and inter-switch links created;
* **inter-layer link counts** ``ill(l, l+1)`` (Def. 6) — one count per
  adjacent-layer boundary, incremented for every boundary a link crosses.

Links are unidirectional: a core attached to a switch gets one injection and
one ejection link; an inter-switch connection in each traffic direction is a
separate physical link. Inter-layer link counting is therefore per direction,
matching one TSV bundle per unidirectional link.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SynthesisError
from repro.units import link_capacity_mbps

#: An endpoint is ("core", core_index) or ("switch", switch_id).
Endpoint = Tuple[str, int]


def core_ep(index: int) -> Endpoint:
    return ("core", index)


def switch_ep(switch_id: int) -> Endpoint:
    return ("switch", switch_id)


@dataclass
class Switch:
    """A network switch assigned to one 3-D layer.

    Position (x, y) is filled in by the placement LP (Sec. VII); until then
    an estimated position (core centroid) is stored by the synthesis code.
    """

    id: int
    layer: int
    x: float = 0.0
    y: float = 0.0
    in_ports: int = 0
    out_ports: int = 0
    is_indirect: bool = False

    @property
    def size(self) -> int:
        """Switch size: the crossbar radix, max(input ports, output ports)."""
        return max(self.in_ports, self.out_ports)

    @property
    def center(self) -> Tuple[float, float]:
        return (self.x, self.y)


@dataclass
class Link:
    """A unidirectional physical link.

    Attributes:
        id: Dense link id (index into ``Topology.links``).
        src / dst: Endpoints.
        src_layer / dst_layer: 3-D layers of the endpoints.
        load_mbps: Total bandwidth of the flows mapped to the link.
        flows: The (src_core, dst_core) flow ids using the link.
        length_mm: Planar (intra-layer metal) length; set after placement.
    """

    id: int
    src: Endpoint
    dst: Endpoint
    src_layer: int
    dst_layer: int
    load_mbps: float = 0.0
    flows: List[Tuple[int, int]] = field(default_factory=list)
    length_mm: float = 0.0

    @property
    def layers_crossed(self) -> int:
        return abs(self.src_layer - self.dst_layer)

    @property
    def is_vertical(self) -> bool:
        return self.layers_crossed > 0

    @property
    def lo_layer(self) -> int:
        return min(self.src_layer, self.dst_layer)

    @property
    def hi_layer(self) -> int:
        return max(self.src_layer, self.dst_layer)

    @property
    def is_core_link(self) -> bool:
        return self.src[0] == "core" or self.dst[0] == "core"


@dataclass
class Topology:
    """A synthesized NoC for one design point."""

    frequency_mhz: float
    width_bits: int
    switches: List[Switch] = field(default_factory=list)
    links: List[Link] = field(default_factory=list)
    core_to_switch: Dict[int, int] = field(default_factory=dict)
    #: flow (src_core, dst_core) -> list of link ids, injection to ejection.
    routes: Dict[Tuple[int, int], List[int]] = field(default_factory=dict)
    #: flow -> list of switch ids traversed (derived, kept for reporting).
    switch_routes: Dict[Tuple[int, int], List[int]] = field(default_factory=dict)
    #: flow -> bandwidth demand in MB/s (recorded at routing time).
    flow_bandwidth: Dict[Tuple[int, int], float] = field(default_factory=dict)
    #: boundary (l, l+1) -> number of links crossing it.
    ill: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: (src endpoint, dst endpoint) -> link ids, kept in sync by _new_link.
    _link_index: Dict[Tuple[Endpoint, Endpoint], List[int]] = field(
        default_factory=dict, repr=False
    )

    # -- construction ------------------------------------------------------

    def add_switch(self, layer: int, *, is_indirect: bool = False) -> Switch:
        sw = Switch(id=len(self.switches), layer=layer, is_indirect=is_indirect)
        self.switches.append(sw)
        return sw

    def attach_core(
        self, core_index: int, switch_id: int, core_layer: int
    ) -> Tuple[Link, Link]:
        """Connect a core to a switch with an injection + an ejection link."""
        if core_index in self.core_to_switch:
            raise SynthesisError(f"core {core_index} already attached")
        sw = self.switches[switch_id]
        inj = self._new_link(core_ep(core_index), switch_ep(switch_id),
                             core_layer, sw.layer)
        ej = self._new_link(switch_ep(switch_id), core_ep(core_index),
                            sw.layer, core_layer)
        sw.in_ports += 1
        sw.out_ports += 1
        self.core_to_switch[core_index] = switch_id
        return inj, ej

    def add_switch_link(self, src_switch: int, dst_switch: int) -> Link:
        """Open a new physical link between two switches (one direction)."""
        if src_switch == dst_switch:
            raise SynthesisError("switch self-links are not allowed")
        a = self.switches[src_switch]
        b = self.switches[dst_switch]
        link = self._new_link(
            switch_ep(src_switch), switch_ep(dst_switch), a.layer, b.layer
        )
        a.out_ports += 1
        b.in_ports += 1
        return link

    def _new_link(
        self, src: Endpoint, dst: Endpoint, src_layer: int, dst_layer: int
    ) -> Link:
        link = Link(
            id=len(self.links), src=src, dst=dst,
            src_layer=src_layer, dst_layer=dst_layer,
        )
        self.links.append(link)
        self._link_index.setdefault((src, dst), []).append(link.id)
        for boundary in range(link.lo_layer, link.hi_layer):
            key = (boundary, boundary + 1)
            self.ill[key] = self.ill.get(key, 0) + 1
        return link

    def intern_kinds(self) -> None:
        """Point every endpoint at the interned ``"core"``/``"switch"``
        that new links hold (an unpickled topology holds copies). Each
        endpoint tuple is rebuilt once, so shared tuples stay shared."""
        memo: Dict[int, Tuple[Endpoint, Endpoint]] = {}

        def canonical(ep: Endpoint) -> Endpoint:
            if id(ep) not in memo:
                memo[id(ep)] = (ep, (sys.intern(ep[0]), ep[1]))
            return memo[id(ep)][1]

        for link in self.links:
            link.src, link.dst = canonical(link.src), canonical(link.dst)
        self._link_index = {
            (canonical(src), canonical(dst)): ids
            for (src, dst), ids in self._link_index.items()
        }

    # -- queries -----------------------------------------------------------

    @property
    def capacity_mbps(self) -> float:
        return link_capacity_mbps(self.width_bits, self.frequency_mhz)

    def links_between(self, src: Endpoint, dst: Endpoint) -> List[Link]:
        return [self.links[i] for i in self._link_index.get((src, dst), [])]

    def injection_link(self, core_index: int) -> Link:
        sw = self.core_to_switch[core_index]
        candidates = self.links_between(core_ep(core_index), switch_ep(sw))
        if not candidates:
            raise SynthesisError(f"core {core_index} has no injection link")
        return candidates[0]

    def ejection_link(self, core_index: int) -> Link:
        sw = self.core_to_switch[core_index]
        candidates = self.links_between(switch_ep(sw), core_ep(core_index))
        if not candidates:
            raise SynthesisError(f"core {core_index} has no ejection link")
        return candidates[0]

    def ill_between(self, layer_a: int, layer_b: int) -> int:
        """Current inter-layer link count across the (a, b) boundary."""
        lo, hi = min(layer_a, layer_b), max(layer_a, layer_b)
        total = 0
        for boundary in range(lo, hi):
            total += self.ill.get((boundary, boundary + 1), 0)
        return total

    @property
    def max_ill_used(self) -> int:
        return max(self.ill.values()) if self.ill else 0

    @property
    def num_vertical_links(self) -> int:
        return sum(1 for l in self.links if l.is_vertical)

    @property
    def num_switch_links(self) -> int:
        return sum(1 for l in self.links if not l.is_core_link)

    @property
    def max_switch_size(self) -> int:
        return max((s.size for s in self.switches), default=0)

    def vertical_links(self) -> List[Link]:
        return [l for l in self.links if l.is_vertical]

    # -- route bookkeeping ---------------------------------------------------

    def record_route(
        self,
        flow: Tuple[int, int],
        link_ids: List[int],
        switch_ids: List[int],
        bandwidth_mbps: float,
    ) -> None:
        """Store a flow's route and account its bandwidth on every link."""
        if flow in self.routes:
            raise SynthesisError(f"flow {flow} already routed")
        self.routes[flow] = list(link_ids)
        self.switch_routes[flow] = list(switch_ids)
        self.flow_bandwidth[flow] = bandwidth_mbps
        for lid in link_ids:
            link = self.links[lid]
            link.load_mbps += bandwidth_mbps
            link.flows.append(flow)

    def validate_routes(self) -> None:
        """Check that every stored route is a connected src->dst chain."""
        for (src, dst), link_ids in self.routes.items():
            if not link_ids:
                raise SynthesisError(f"flow ({src}, {dst}) has an empty route")
            chain = [self.links[l] for l in link_ids]
            if chain[0].src != core_ep(src):
                raise SynthesisError(f"flow ({src}, {dst}): route does not start at source core")
            if chain[-1].dst != core_ep(dst):
                raise SynthesisError(f"flow ({src}, {dst}): route does not end at destination core")
            for a, b in zip(chain, chain[1:]):
                if a.dst != b.src:
                    raise SynthesisError(
                        f"flow ({src}, {dst}): route breaks between links {a.id} and {b.id}"
                    )

    def check_capacity(self) -> List[int]:
        """Link ids whose load exceeds the link capacity."""
        limit = self.capacity_mbps
        return [l.id for l in self.links if l.load_mbps > limit + 1e-9]
