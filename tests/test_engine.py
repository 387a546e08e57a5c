"""The parallel design-space exploration engine (repro.engine)."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.bench.synthetic import synthetic_benchmark
from repro.core.config import SynthesisConfig
from repro.engine import (
    GridPoint,
    ParameterGrid,
    SynthesisTask,
    Timer,
    build_tasks,
    resolve_jobs,
    run_task,
    run_tasks,
)
from repro.errors import EngineError, SpecError, SynthesisError
from repro.noc.export import design_point_to_dict


@pytest.fixture(scope="module")
def design():
    """Small seeded synthetic design (bench/synthetic.py) shared here."""
    bench = synthetic_benchmark(
        10, "random", num_layers=2, seed=11, floorplan_moves=300
    )
    return bench.core_spec_3d, bench.comm_spec


@pytest.fixture(scope="module")
def config():
    return SynthesisConfig(max_ill=10, switch_count_range=(2, 4))


def _canonical(results):
    """Byte-comparable form of a merged engine run."""
    return json.dumps(
        [
            {
                "key": str(r.key),
                "points": [design_point_to_dict(p) for p in r.result.points],
                "unmet": r.result.unmet_switch_counts,
            }
            for r in results
        ],
        sort_keys=True,
    )


class TestGrid:
    def test_cross_product_order(self):
        grid = ParameterGrid(frequencies_mhz=(200.0, 400.0), alphas=(0.5,))
        points = grid.points()
        assert points == [
            GridPoint(frequency_mhz=200.0, alpha=0.5),
            GridPoint(frequency_mhz=400.0, alpha=0.5),
        ]
        assert grid.size == 2

    def test_empty_dimensions_inherit_base(self):
        grid = ParameterGrid()
        assert grid.points() == [GridPoint()]
        base = SynthesisConfig(frequency_mhz=123.0)
        assert GridPoint().apply(base) is base

    def test_apply_overrides(self):
        base = SynthesisConfig()
        cfg = GridPoint(frequency_mhz=250.0, link_width_bits=64).apply(base)
        assert cfg.frequency_mhz == 250.0
        assert cfg.link_width_bits == 64
        assert cfg.alpha == base.alpha

    def test_validation_up_front_all_dimensions(self):
        with pytest.raises(SynthesisError, match="frequency"):
            ParameterGrid(frequencies_mhz=(400.0, -1.0)).points()
        with pytest.raises(SynthesisError, match="alpha"):
            ParameterGrid(alphas=(0.5, 1.5)).points()
        with pytest.raises(SynthesisError, match="width"):
            ParameterGrid(link_widths_bits=(0,)).points()
        with pytest.raises(SynthesisError, match="switch_count_range"):
            ParameterGrid(switch_count_ranges=((3, 1),)).points()
        # Judged by the configuration as given, never cast: a fractional or
        # bool width, a bool alpha and a string frequency are refused.
        with pytest.raises(SynthesisError, match="link_width_bits"):
            ParameterGrid(link_widths_bits=(32.5,)).points()
        with pytest.raises(SynthesisError, match="link_width_bits"):
            ParameterGrid(link_widths_bits=(True,)).points()
        with pytest.raises(SynthesisError, match="alpha"):
            ParameterGrid(alphas=(True,)).points()
        with pytest.raises(SynthesisError, match="frequency"):
            ParameterGrid(frequencies_mhz=("400",)).points()

    @pytest.mark.parametrize("dimension, value", [
        ("frequencies_mhz", 400),
        ("alphas", 0.5),
        ("link_widths_bits", "32"),
        ("switch_count_ranges", None),
    ])
    def test_bare_value_dimension_refused(self, dimension, value):
        # A bare value where a sequence belongs is named, not a TypeError.
        with pytest.raises(SynthesisError, match=dimension):
            ParameterGrid(**{dimension: value})

    def test_infeasible_point_marked_skip(self, design):
        core_spec, comm_spec = design
        # 10 MHz on 32-bit links: 40 MB/s capacity, far below the flows.
        tasks = build_tasks(
            core_spec, comm_spec,
            ParameterGrid(frequencies_mhz=(10.0, 400.0)),
        )
        assert tasks[0].skip and "capacity" in tasks[0].skip_reason
        assert not tasks[1].skip

    def test_label(self):
        point = GridPoint(frequency_mhz=400.0, alpha=0.5)
        assert "400" in point.label() and "0.5" in point.label()
        assert GridPoint().label() == "base"


class TestTasks:
    def test_task_pickles(self, design, config):
        core_spec, comm_spec = design
        tasks = build_tasks(
            core_spec, comm_spec, ParameterGrid(frequencies_mhz=(400.0,)),
            config,
        )
        clone = pickle.loads(pickle.dumps(tasks[0]))
        assert clone.key == tasks[0].key
        assert clone.config == tasks[0].config

    def test_skip_task_returns_empty_result(self, design, config):
        core_spec, comm_spec = design
        task = SynthesisTask(
            key="x", core_spec=core_spec, comm_spec=comm_spec,
            config=config, skip=True,
        )
        result = run_task(task)
        assert result.skipped and result.ok
        assert result.result.is_empty

    def test_error_captured_not_raised(self, design):
        core_spec, comm_spec = design
        task = SynthesisTask(
            key="bad", core_spec=core_spec, comm_spec=comm_spec,
            config=SynthesisConfig(switch_count_range=(1, 1), phase="phase1"),
            library="not a library",  # type: ignore[arg-type]
        )
        result = run_task(task)
        assert not result.ok
        assert result.error is not None

    def test_simulation_tasks_solo_and_batched(self):
        import dataclasses

        from repro.engine.tasks import (
            BatchSimulationTask, SimulationTask, simulation_tasks,
        )

        def build(batch):
            return simulation_tasks(
                "topology", ("bernoulli", "hotspot:3"), (0.3, 1.0),
                (0, 1, 2), batch, cycles=300, warmup=50,
            )

        solo = build(None)
        assert build(1) == solo
        assert all(isinstance(t, SimulationTask) for t in solo)
        label = solo[0].scenario.label()
        assert [t.key for t in solo[:3]] == [(label, 0.3, s) for s in range(3)]
        assert {(t.cycles, t.warmup, t.topology) for t in solo} == {
            (300, 50, "topology")
        }
        batched = build(2)
        assert all(isinstance(t, BatchSimulationTask) for t in batched)
        assert [t.key for t in batched[:2]] == [
            (label, 0.3, (0, 1)), (label, 0.3, (2,))
        ]
        # Seed order is kept, so the batches expand to the solo campaign.
        expanded = [sub for t in batched for sub in t.expand_for_store()]
        assert [dataclasses.replace(t, key=None) for t in expanded] == [
            dataclasses.replace(t, key=None) for t in solo
        ]
        with pytest.raises(EngineError, match="batch"):
            build(0)


class TestExecutor:
    def test_resolve_jobs(self, monkeypatch):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(1) == 1
        assert resolve_jobs(None) >= 1
        monkeypatch.setenv("REPRO_ENGINE_JOBS", "5")
        assert resolve_jobs(None) == 5
        assert resolve_jobs(0) == 5
        monkeypatch.setenv("REPRO_ENGINE_JOBS", "nope")
        with pytest.raises(EngineError):
            resolve_jobs(None)
        monkeypatch.delenv("REPRO_ENGINE_JOBS")
        with pytest.raises(EngineError):
            resolve_jobs(-2)

    def test_parallel_matches_serial_byte_identical(self, design, config):
        """The regression gate: fan-out must not change a single value."""
        core_spec, comm_spec = design
        grid = ParameterGrid(
            frequencies_mhz=(300.0, 450.0), alphas=(0.4, 0.8)
        )
        tasks = build_tasks(core_spec, comm_spec, grid, config)
        serial = run_tasks(tasks, jobs=1)
        parallel = run_tasks(tasks, jobs=2)
        assert _canonical(serial) == _canonical(parallel)
        assert [r.key for r in parallel] == [t.key for t in tasks]

    def test_progress_monotonic_and_complete(self, design, config):
        core_spec, comm_spec = design
        grid = ParameterGrid(frequencies_mhz=(300.0, 400.0, 500.0))
        tasks = build_tasks(core_spec, comm_spec, grid, config)
        seen = []
        run_tasks(tasks, jobs=2, progress=lambda d, t, k: seen.append((d, t)))
        assert [d for d, _ in seen] == [1, 2, 3]
        assert all(t == 3 for _, t in seen)

    def test_errors_reraised_in_task_order(self, design):
        core_spec, comm_spec = design
        good = SynthesisConfig(max_ill=10, switch_count_range=(2, 3))
        tasks = [
            SynthesisTask(
                key=i, core_spec=core_spec, comm_spec=comm_spec, config=good,
                library="broken" if i in (1, 2) else None,  # type: ignore
            )
            for i in range(3)
        ]
        with pytest.raises(Exception) as excinfo_serial:
            run_tasks(tasks, jobs=1)
        with pytest.raises(Exception) as excinfo_parallel:
            run_tasks(tasks, jobs=2)
        assert type(excinfo_serial.value) is type(excinfo_parallel.value)

    def test_parent_never_repickles_a_pool_result(self, tmp_path, monkeypatch):
        """A pool worker ships its result as one pickle and the parent
        files those bytes: the parent pickles no ``SynthesisResult`` (a
        forked worker counts on its own copy of the counter). The store it
        filed then serves a serial rerun whole, equal to a storeless run."""
        from repro.bench import get_benchmark
        from repro.core.design_point import SynthesisResult
        from repro.core.frequency_sweep import sweep_frequencies
        from repro.engine import ResultStore

        bench = get_benchmark("d26_media")
        specs = (bench.core_spec_3d, bench.comm_spec, (400.0, 600.0))
        pickles = []

        def counting(self, protocol):
            pickles.append(protocol)
            return object.__reduce_ex__(self, protocol)

        monkeypatch.setattr(SynthesisResult, "__reduce_ex__", counting)
        sweep_frequencies(*specs, jobs=2, store=ResultStore(tmp_path))
        assert pickles == []
        monkeypatch.undo()

        def docs(sweep):
            return [design_point_to_dict(p) for p in sweep.all_points()]

        store = ResultStore(tmp_path)
        warm = sweep_frequencies(*specs, jobs=1, store=store)
        assert (store.hits, store.misses) == (2, 0)
        assert docs(warm) == docs(sweep_frequencies(*specs, jobs=1))

    def test_raise_errors_false_returns_all(self, design):
        core_spec, comm_spec = design
        good = SynthesisConfig(max_ill=10, switch_count_range=(2, 3))
        tasks = [
            SynthesisTask(
                key=i, core_spec=core_spec, comm_spec=comm_spec, config=good,
                library="broken" if i == 0 else None,  # type: ignore
            )
            for i in range(2)
        ]
        results = run_tasks(tasks, jobs=1, raise_errors=False)
        assert not results[0].ok
        assert results[1].ok


class TestProfile:
    def test_timer_measures(self):
        with Timer() as t:
            sum(range(1000))
        assert t.elapsed_s >= 0.0
