"""Wall-clock instrumentation (repro.engine.profile) and the staged
pipeline's StageTimings formatting/aggregation paths."""

from __future__ import annotations

import pytest

from repro.core.pipeline import StageTimings
from repro.engine.profile import Timer


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as t:
            pass
        assert t.elapsed_s >= 0.0

    def test_restart_resets(self):
        t = Timer()
        with t:
            pass
        t.restart()
        assert t.elapsed_s == 0.0

    def test_elapsed_survives_exceptions(self):
        t = Timer()
        with pytest.raises(ValueError):
            with t:
                raise ValueError("boom")
        assert t.elapsed_s >= 0.0


class TestStageTimings:
    def _timings(self):
        timings = StageTimings()
        timings.add("routing", 0.5)
        timings.add("routing", 0.25)
        timings.add("floorplan", 2.0)
        return timings

    def test_order_preserved_and_aggregated(self):
        timings = self._timings()
        assert timings.names == ["routing", "floorplan"]
        assert timings.count("routing") == 2
        assert timings.total_s("routing") == 0.75
        assert timings.count("missing") == 0
        assert timings.total_s("missing") == 0.0

    def test_merge_folds_worker_dicts(self):
        timings = self._timings()
        timings.merge({"routing": 0.25, "verify": 1.0})
        assert timings.count("routing") == 3
        assert timings.names[-1] == "verify"

    def test_as_dict_mean(self):
        doc = self._timings().as_dict()
        assert doc["routing"] == {
            "total_s": 0.75, "count": 2, "mean_ms": 375.0,
        }

    def test_report_formatting(self):
        report = self._timings().report()
        lines = report.splitlines()
        assert lines[0] == "per-stage timings:"
        # Header, separator, then one row per stage in first-seen order.
        assert lines[1].split() == ["stage", "calls", "total", "s", "mean", "ms"]
        assert set(lines[2]) <= {" ", "-"}
        routing_row, floorplan_row = lines[3], lines[4]
        assert routing_row.split() == ["routing", "2", "0.750", "375.00"]
        assert floorplan_row.split() == ["floorplan", "1", "2.000", "2000.00"]
        # Aligned: all rows end at the same column.
        assert len({len(line) for line in lines[1:]}) == 1

    def test_report_empty(self):
        report = StageTimings().report()
        assert report.splitlines()[0] == "per-stage timings:"
