"""Self-tests of the benchmark on its tiny inputs (d26_media only, two
frequencies, two simulation seeds at a few hundred cycles).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

bench.bootstrap(HERE.parent)

import workloads  # noqa: E402
from repro.core.pipeline import Pipeline  # noqa: E402
from repro.noc.simulator import WormholeSimulator  # noqa: E402

SPEC = bench.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny_run(name: str, trace: bool, workdir: Path) -> dict:
    return bench.run_workload(name, 0, 0.0, trace, tiny=True, workdir=workdir)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    run = tiny_run(name, trace, tmp_path)
    result = run["result"]
    assert result["correct"], run["problems"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_tracing_restores_the_program(tmp_path):
    evaluate, run_batch = Pipeline.evaluate, WormholeSimulator.run_batch
    run = tiny_run("sim_serve", True, tmp_path)
    assert run["result"]["metrics"]["sim.batch.calls"]["value"] > 0
    assert Pipeline.evaluate is evaluate
    assert WormholeSimulator.run_batch is run_batch


def _drop_last_point(result):
    result.points.pop()
    return result


def test_perturbed_synthesis_trips_the_digest(monkeypatch, tmp_path):
    real = workloads.run_synthesis
    monkeypatch.setattr(
        workloads, "run_synthesis",
        lambda ctx, **kw: _drop_last_point(real(ctx, **kw)),
    )
    run = tiny_run("synth_registry", False, tmp_path)
    assert not run["result"]["correct"]
    assert run["result"]["failed"] >= 1
    assert any("recorded" in p for p in run["problems"])


def test_perturbed_sweep_trips_the_digest(monkeypatch, tmp_path):
    real = workloads.sweep_frequencies

    def perturbed(*args, **kwargs):
        sweep = real(*args, **kwargs)
        _drop_last_point(sweep.per_frequency[min(sweep.per_frequency)])
        return sweep

    monkeypatch.setattr(workloads, "sweep_frequencies", perturbed)
    run = tiny_run("sweep_cached", False, tmp_path)
    assert not run["result"]["correct"]
    assert any("recorded" in p for p in run["problems"])


def test_perturbed_simulation_trips_the_digest(monkeypatch, tmp_path):
    real = WormholeSimulator.run_batch

    def perturbed(self, *args, **kwargs):
        rows = real(self, *args, **kwargs)
        rows[0].flits_delivered += 1
        return rows

    monkeypatch.setattr(WormholeSimulator, "run_batch", perturbed)
    run = tiny_run("sim_serve", False, tmp_path)
    assert not run["result"]["correct"]
    assert any("recorded" in p for p in run["problems"])
