"""Markdown report generation (repro.reports)."""

import pytest

from repro.core.config import SynthesisConfig
from repro.core.design_point import SynthesisResult
from repro.core.pipeline import FlowContext, run_synthesis
from repro.reports import render_point_markdown, render_result_markdown, save_report


@pytest.fixture(scope="module")
def synth():
    from tests.conftest import grid_core_spec
    from repro.spec.comm_spec import CommSpec, TrafficFlow

    core_spec = grid_core_spec(6, 2)
    comm_spec = CommSpec(flows=[
        TrafficFlow("C0", "C3", 300, 10),
        TrafficFlow("C1", "C4", 200, 10),
        TrafficFlow("C2", "C5", 150, 12),
    ])
    ctx = FlowContext.build(
        core_spec, comm_spec,
        config=SynthesisConfig(max_ill=10, switch_count_range=(2, 4)),
    )
    return ctx, run_synthesis(ctx)


class TestResultReport:
    def test_contains_tradeoff_table(self, synth):
        ctx, result = synth
        text = render_result_markdown(result, ctx.graph)
        assert "## Trade-off points" in text
        assert "| switches | phase |" in text
        # One row per point.
        assert text.count("| phase1 |") >= len(result.points)

    def test_contains_best_point_details(self, synth):
        ctx, result = synth
        text = render_result_markdown(result, ctx.graph)
        assert "## Chosen design point" in text
        assert "## Switches" in text
        assert "## Floorplan" in text
        assert "legend:" in text

    def test_empty_result(self):
        text = render_result_markdown(SynthesisResult(unmet_switch_counts=[1, 2]))
        assert "No valid design points" in text
        assert "[1, 2]" in text

    def test_save(self, synth, tmp_path):
        ctx, result = synth
        path = tmp_path / "report.md"
        save_report(result, path, ctx.graph, title="My SoC")
        text = path.read_text()
        assert text.startswith("# My SoC")


class TestPointReport:
    def test_latency_slack_table(self, synth):
        ctx, result = synth
        text = render_point_markdown(result.best_power(), ctx.graph)
        assert "## Latency slack per flow" in text
        assert "C0 → C3" in text
        # All slacks non-negative: constraints were met.
        for line in text.splitlines():
            if "→" in line and line.startswith("|"):
                slack = float(line.rstrip(" |").rsplit("|", 1)[-1])
                assert slack >= -1e-9

    def test_without_graph_uses_indices(self, synth):
        _, result = synth
        text = render_point_markdown(result.best_power())
        assert "core0" in text
        assert "Latency slack" not in text

    def test_power_breakdown_present(self, synth):
        ctx, result = synth
        best = result.best_power()
        text = render_point_markdown(best, ctx.graph)
        assert f"{best.metrics.total_power_mw:.1f} mW" in text
