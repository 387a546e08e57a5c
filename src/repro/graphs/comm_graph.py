"""The communication graph (Definition 2 of the paper).

A directed graph with one vertex per core and one edge per traffic flow,
annotated with bandwidth and latency constraint. This module gives the graph
a concrete, index-based representation shared by the partitioning graphs
(PG/SPG/LPG) built on top of it in :mod:`repro.core.partition_graphs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.errors import SpecError
from repro.spec.comm_spec import CommSpec, TrafficFlow
from repro.spec.core_spec import CoreSpec


@dataclass
class CommGraph:
    """Index-based communication graph.

    Attributes:
        n: Number of cores (vertices).
        names: Core names, ``names[i]`` is the name of vertex ``i``.
        edges: Mapping ``(i, j) -> TrafficFlow`` for every directed flow.
        layers: ``layers[i]`` is the 3-D layer of core ``i``.
    """

    n: int
    names: List[str]
    edges: Dict[Tuple[int, int], TrafficFlow] = field(default_factory=dict)
    layers: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.names) != self.n:
            raise SpecError("names list length must equal n")
        if len(self.layers) != self.n:
            raise SpecError("layers list length must equal n")

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError as exc:
            raise SpecError(f"unknown core {name!r}") from exc

    def flows(self) -> Iterator[Tuple[int, int, TrafficFlow]]:
        """Iterate ``(src_index, dst_index, flow)`` in deterministic order."""
        for (i, j) in sorted(self.edges):
            yield i, j, self.edges[(i, j)]

    def bandwidth(self, i: int, j: int) -> float:
        """Bandwidth of flow i->j, 0 if there is no such flow."""
        flow = self.edges.get((i, j))
        return flow.bandwidth if flow is not None else 0.0

    def latency(self, i: int, j: int) -> float:
        """Latency constraint of flow i->j; +inf if there is no such flow."""
        flow = self.edges.get((i, j))
        return flow.latency if flow is not None else float("inf")

    @property
    def max_bandwidth(self) -> float:
        """``max_bw`` of Def. 3."""
        if not self.edges:
            raise SpecError("communication graph has no flows")
        return max(f.bandwidth for f in self.edges.values())

    @property
    def min_latency(self) -> float:
        """``min_lat`` of Def. 3."""
        if not self.edges:
            raise SpecError("communication graph has no flows")
        return min(f.latency for f in self.edges.values())

    @property
    def num_layers(self) -> int:
        return max(self.layers) + 1 if self.layers else 0

    def symmetric_bandwidth(self) -> Dict[Tuple[int, int], float]:
        """Undirected bandwidth weights: ``bw(i,j) + bw(j,i)`` per pair i<j."""
        out: Dict[Tuple[int, int], float] = {}
        for (i, j), flow in self.edges.items():
            key = (min(i, j), max(i, j))
            out[key] = out.get(key, 0.0) + flow.bandwidth
        return out


def build_comm_graph(core_spec: CoreSpec, comm_spec: CommSpec) -> CommGraph:
    """Build the communication graph from the two input specifications.

    Vertex ``i`` corresponds to ``core_spec[i]``; flow endpoints are resolved
    by core name.
    """
    index = {name: i for i, name in enumerate(core_spec.names)}
    edges: Dict[Tuple[int, int], TrafficFlow] = {}
    for flow in comm_spec:
        if flow.src not in index:
            raise SpecError(f"flow source {flow.src!r} is not a declared core")
        if flow.dst not in index:
            raise SpecError(f"flow destination {flow.dst!r} is not a declared core")
        edges[(index[flow.src], index[flow.dst])] = flow
    return CommGraph(
        n=len(core_spec),
        names=list(core_spec.names),
        edges=edges,
        layers=[c.layer for c in core_spec],
    )
