"""Design-rule verifier (repro.core.verification)."""

import pytest

from repro.core.config import SynthesisConfig
from repro.core.pipeline import FlowContext, run_synthesis
from repro.core.verification import verify_design_point
from repro.models.library import default_library


@pytest.fixture(scope="module")
def synthesized():
    from tests.conftest import grid_core_spec
    from repro.spec.comm_spec import CommSpec, MessageType, TrafficFlow

    core_spec = grid_core_spec(9, 3)
    comm_spec = CommSpec(flows=[
        TrafficFlow("C0", "C3", 500, 10),
        TrafficFlow("C3", "C0", 350, 10, MessageType.RESPONSE),
        TrafficFlow("C1", "C4", 180, 8),
        TrafficFlow("C4", "C7", 260, 12),
        TrafficFlow("C2", "C5", 90, 14),
        TrafficFlow("C5", "C8", 310, 9),
        TrafficFlow("C6", "C0", 70, 16),
    ])
    ctx = FlowContext.build(core_spec, comm_spec,
                            config=SynthesisConfig(max_ill=12))
    return ctx, run_synthesis(ctx)


class TestVerifier:
    def test_all_synthesized_points_pass(self, synthesized):
        ctx, result = synthesized
        lib = default_library()
        for point in result.points:
            report = verify_design_point(point, ctx.graph, lib)
            assert report.ok, report.summary()
            assert report.checks_run == 10

    def test_detects_missing_route(self, synthesized):
        ctx, result = synthesized
        point = result.best_power()
        removed = dict(point.topology.routes)
        key = next(iter(removed))
        del point.topology.routes[key]
        try:
            report = verify_design_point(point, ctx.graph, default_library())
            assert not report.ok
            assert any("no route" in v for v in report.violations)
        finally:
            point.topology.routes = removed

    def test_detects_overloaded_link(self, synthesized):
        ctx, result = synthesized
        point = result.best_power()
        link = point.topology.links[0]
        original = link.load_mbps
        link.load_mbps = 10_000.0
        try:
            report = verify_design_point(point, ctx.graph, default_library())
            assert any("over capacity" in v for v in report.violations)
        finally:
            link.load_mbps = original

    def test_detects_ill_violation(self, synthesized):
        ctx, result = synthesized
        point = result.best_power()
        # Tamper with the recorded config: pretend max_ill was 0.
        strict = point.config.with_(max_ill=0)
        original = point.config
        point.config = strict
        try:
            report = verify_design_point(point, ctx.graph, default_library())
            if point.topology.ill:
                assert any("inter-layer links" in v for v in report.violations)
        finally:
            point.config = original

    def test_detects_oversized_switch(self, synthesized):
        ctx, result = synthesized
        point = result.best_power()
        sw = point.topology.switches[0]
        original = sw.in_ports
        sw.in_ports = 99
        try:
            report = verify_design_point(point, ctx.graph, default_library())
            assert any("above the limit" in v for v in report.violations)
        finally:
            sw.in_ports = original

    def test_detects_floorplan_overlap(self, synthesized):
        ctx, result = synthesized
        point = result.best_power()
        from repro.floorplan.placement import PlacedComponent

        first_core = point.floorplan.of_kind("core")[0]
        clone = PlacedComponent(
            name="sw999", kind="switch",
            rect=first_core.rect, layer=first_core.layer,
        )
        point.floorplan.add(clone)
        try:
            report = verify_design_point(point, ctx.graph, default_library())
            assert any("overlap" in v for v in report.violations)
        finally:
            point.floorplan.components.remove(clone)

    def test_report_summary_format(self, synthesized):
        ctx, result = synthesized
        report = verify_design_point(
            result.best_power(), ctx.graph, default_library()
        )
        assert "PASS" in report.summary()
