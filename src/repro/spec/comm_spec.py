"""Communication specification: traffic flows between cores.

Mirrors the paper's *communication specification file* (Sec. IV): "the
bandwidth of communication across different cores, latency constraints and
message type (request/response) of the different traffic flows".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import SpecError
from repro.spec.core_spec import check_finite


class MessageType(enum.Enum):
    """Message class of a flow, used for message-dependent deadlock removal.

    Request and response flows are routed on channel-dependency graphs kept
    separate per class (after Hansson et al. [14] / Murali et al. [16]), so a
    response can never wait behind a request of the same transaction.
    """

    REQUEST = "request"
    RESPONSE = "response"

    @classmethod
    def parse(cls, text: str) -> "MessageType":
        try:
            return cls(text.strip().lower())
        except ValueError as exc:
            raise SpecError(
                f"unknown message type {text!r} (expected 'request' or 'response')"
            ) from exc


@dataclass(frozen=True)
class TrafficFlow:
    """A directed communication flow between two cores.

    Attributes:
        src: Source core name.
        dst: Destination core name.
        bandwidth: Average bandwidth demand in MB/s (``bw_{i,j}`` in Def. 2).
        latency: Latency constraint in NoC cycles (``lat_{i,j}`` in Def. 2).
        message_type: Request or response, for deadlock-class separation.
    """

    src: str
    dst: str
    bandwidth: float
    latency: float
    message_type: MessageType = MessageType.REQUEST

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise SpecError(f"flow {self.src!r} -> {self.dst!r}: self loops not allowed")
        check_finite(
            f"flow {self.src!r} -> {self.dst!r}",
            bandwidth=self.bandwidth, latency=self.latency,
        )
        if self.bandwidth <= 0:
            raise SpecError(
                f"flow {self.src!r} -> {self.dst!r}: bandwidth must be positive, "
                f"got {self.bandwidth}"
            )
        if self.latency <= 0:
            raise SpecError(
                f"flow {self.src!r} -> {self.dst!r}: latency constraint must be "
                f"positive, got {self.latency}"
            )

    @property
    def endpoints(self) -> Tuple[str, str]:
        return (self.src, self.dst)

    def scaled(self, factor: float) -> "TrafficFlow":
        """A copy with bandwidth scaled by ``factor``."""
        return replace(self, bandwidth=self.bandwidth * factor)


@dataclass
class CommSpec:
    """The full communication specification: a list of directed flows.

    At most one flow may exist per ordered (src, dst) pair; merge duplicate
    demands before constructing the spec.
    """

    flows: List[TrafficFlow] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen = set()
        for flow in self.flows:
            key = (flow.src, flow.dst)
            if key in seen:
                raise SpecError(f"duplicate flow {flow.src!r} -> {flow.dst!r}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.flows)

    def __iter__(self) -> Iterator[TrafficFlow]:
        return iter(self.flows)

    def __getitem__(self, index: int) -> TrafficFlow:
        return self.flows[index]

    @property
    def core_names(self) -> List[str]:
        """All core names referenced by any flow, in first-seen order."""
        seen: Dict[str, None] = {}
        for flow in self.flows:
            seen.setdefault(flow.src)
            seen.setdefault(flow.dst)
        return list(seen)

    @property
    def max_bandwidth(self) -> float:
        """``max_bw`` of Def. 3: the largest bandwidth over all flows."""
        if not self.flows:
            raise SpecError("communication spec has no flows")
        return max(f.bandwidth for f in self.flows)

    @property
    def min_latency(self) -> float:
        """``min_lat`` of Def. 3: the tightest latency constraint."""
        if not self.flows:
            raise SpecError("communication spec has no flows")
        return min(f.latency for f in self.flows)

    @property
    def total_bandwidth(self) -> float:
        return sum(f.bandwidth for f in self.flows)

    def flow_between(self, src: str, dst: str) -> Optional[TrafficFlow]:
        for flow in self.flows:
            if flow.src == src and flow.dst == dst:
                return flow
        return None

    def flows_from(self, src: str) -> List[TrafficFlow]:
        return [f for f in self.flows if f.src == src]

    def flows_to(self, dst: str) -> List[TrafficFlow]:
        return [f for f in self.flows if f.dst == dst]

    def scaled(self, factor: float) -> "CommSpec":
        """A copy of the spec with every bandwidth scaled by ``factor``."""
        if factor <= 0:
            raise SpecError(f"scale factor must be positive, got {factor}")
        return CommSpec(flows=[f.scaled(factor) for f in self.flows])

    def sorted_by_bandwidth(self) -> List[TrafficFlow]:
        """Flows in decreasing bandwidth order (path-computation order).

        Ties are broken by (src, dst) names so the order is deterministic.
        """
        return sorted(
            self.flows, key=lambda f: (-f.bandwidth, f.src, f.dst)
        )
