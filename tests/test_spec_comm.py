"""Communication specification (repro.spec.comm_spec)."""

import math

import pytest

from repro.errors import SpecError
from repro.spec.comm_spec import CommSpec, MessageType, TrafficFlow


class TestTrafficFlow:
    def test_valid_flow(self):
        flow = TrafficFlow("A", "B", 100.0, 8.0)
        assert flow.endpoints == ("A", "B")
        assert flow.message_type is MessageType.REQUEST

    def test_rejects_self_loop(self):
        with pytest.raises(SpecError):
            TrafficFlow("A", "A", 100.0, 8.0)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(SpecError):
            TrafficFlow("A", "B", 0.0, 8.0)

    def test_rejects_nonpositive_latency(self):
        with pytest.raises(SpecError):
            TrafficFlow("A", "B", 100.0, -1.0)

    @pytest.mark.parametrize("bandwidth, latency", [
        (math.nan, 8.0), (math.inf, 8.0), (100.0, math.nan),
        (100.0, math.inf), (True, 8.0), (100.0, "8"),
    ])
    def test_rejects_non_finite_or_non_numeric_demand(self, bandwidth, latency):
        with pytest.raises(SpecError, match="finite number"):
            TrafficFlow("A", "B", bandwidth, latency)

    def test_scaled(self):
        flow = TrafficFlow("A", "B", 100.0, 8.0)
        assert flow.scaled(2.5).bandwidth == pytest.approx(250.0)
        assert flow.bandwidth == pytest.approx(100.0)


class TestMessageType:
    def test_parse(self):
        assert MessageType.parse("request") is MessageType.REQUEST
        assert MessageType.parse(" Response ") is MessageType.RESPONSE

    def test_parse_rejects_unknown(self):
        with pytest.raises(SpecError):
            MessageType.parse("bogus")


class TestCommSpec:
    def _spec(self):
        return CommSpec(flows=[
            TrafficFlow("A", "B", 100.0, 8.0),
            TrafficFlow("B", "C", 300.0, 4.0),
            TrafficFlow("C", "A", 200.0, 12.0, MessageType.RESPONSE),
        ])

    def test_rejects_duplicate_pair(self):
        with pytest.raises(SpecError):
            CommSpec(flows=[
                TrafficFlow("A", "B", 100.0, 8.0),
                TrafficFlow("A", "B", 50.0, 9.0),
            ])

    def test_aggregates(self):
        spec = self._spec()
        assert spec.max_bandwidth == pytest.approx(300.0)
        assert spec.min_latency == pytest.approx(4.0)
        assert spec.total_bandwidth == pytest.approx(600.0)

    def test_aggregates_empty_raise(self):
        with pytest.raises(SpecError):
            CommSpec().max_bandwidth
        with pytest.raises(SpecError):
            CommSpec().min_latency

    def test_core_names_first_seen_order(self):
        assert self._spec().core_names == ["A", "B", "C"]

    def test_lookups(self):
        spec = self._spec()
        assert spec.flow_between("A", "B").bandwidth == pytest.approx(100.0)
        assert spec.flow_between("B", "A") is None
        assert len(spec.flows_from("B")) == 1
        assert len(spec.flows_to("A")) == 1

    def test_scaled(self):
        spec = self._spec().scaled(0.5)
        assert spec.total_bandwidth == pytest.approx(300.0)
        with pytest.raises(SpecError):
            self._spec().scaled(0.0)

    def test_sorted_by_bandwidth_descending_deterministic(self):
        ordered = self._spec().sorted_by_bandwidth()
        assert [f.bandwidth for f in ordered] == [300.0, 200.0, 100.0]
