"""Command-line interface (repro.cli)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.spec.io import save_comm_spec_text, save_core_spec_text


def test_cli_import_loads_no_networkx_or_scipy():
    # Start-up pays only for what a command uses: networkx has no user,
    # and scipy (the LP solver) loads when an LP is first solved.
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys, repro.cli; "
        "print(sorted({'networkx', 'scipy'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestBenchmarksCommand:
    @pytest.mark.slow  # builds every benchmark's annealed floorplan
    def test_lists_benchmarks(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "d26_media" in out and "d36_4" in out


class TestSynthCommand:
    def test_synth_from_files(self, tmp_path, capsys, tiny_specs):
        core_spec, comm_spec = tiny_specs
        cores_path = tmp_path / "cores.txt"
        comm_path = tmp_path / "comm.txt"
        save_core_spec_text(core_spec, cores_path)
        save_comm_spec_text(comm_spec, comm_path)
        rc = main([
            "synth", "--cores", str(cores_path), "--comm", str(comm_path),
            "--max-ill", "10", "--switches", "2:3", "--all-points",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best design point" in out
        assert "sw0" in out

    def test_synth_benchmark(self, capsys):
        rc = main([
            "synth", "--benchmark", "d26_media", "--switches", "3:4",
        ])
        assert rc == 0
        assert "best design point" in capsys.readouterr().out

    def test_stage_timings_and_jobs(self, tmp_path, capsys, tiny_specs):
        core_spec, comm_spec = tiny_specs
        cores_path = tmp_path / "cores.txt"
        comm_path = tmp_path / "comm.txt"
        save_core_spec_text(core_spec, cores_path)
        save_comm_spec_text(comm_spec, comm_path)
        rc = main([
            "synth", "--cores", str(cores_path), "--comm", str(comm_path),
            "--max-ill", "10", "--switches", "2:3",
            "--stage-timings", "--jobs", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-stage timings" in out
        for stage in ("precheck", "routing", "placement_lp", "metrics"):
            assert stage in out
        assert "best design point" in out

    def test_missing_comm_errors(self, tmp_path, capsys, tiny_specs):
        core_spec, _ = tiny_specs
        cores_path = tmp_path / "cores.txt"
        save_core_spec_text(core_spec, cores_path)
        rc = main(["synth", "--cores", str(cores_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_spec_file_exits_two(self, tmp_path, capsys, tiny_specs):
        _, comm_spec = tiny_specs
        cores_path = tmp_path / "cores.json"
        comm_path = tmp_path / "comm.txt"
        cores_path.write_text("{not json")
        save_comm_spec_text(comm_spec, comm_path)
        rc = main(["synth", "--cores", str(cores_path), "--comm", str(comm_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cores_path) in err

    def test_nan_latency_in_spec_file_exits_two(
        self, tmp_path, capsys, tiny_specs
    ):
        core_spec, _ = tiny_specs
        cores_path = tmp_path / "cores.txt"
        comm_path = tmp_path / "comm.txt"
        save_core_spec_text(core_spec, cores_path)
        comm_path.write_text("flow C0 C1 200 8\nflow C1 C2 150 nan\n")
        rc = main(["synth", "--cores", str(cores_path), "--comm", str(comm_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{comm_path}:2:" in err

    @pytest.mark.parametrize("flag", ["--export-json", "--export-dot"])
    def test_export_into_missing_directory_exits_before_any_work(
        self, tmp_path, capsys, monkeypatch, flag
    ):
        import repro.cli

        def no_synthesis(*args, **kwargs):
            raise AssertionError("synthesis ran before the export check")

        monkeypatch.setattr(repro.cli, "run_synthesis", no_synthesis)
        target = tmp_path / "missing" / "out"
        rc = main(["synth", "--benchmark", "d26_media", flag, str(target)])
        assert rc == 2
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""

    @pytest.mark.parametrize("flags", [[], ["--switches", "5:5"]],
                             ids=["full-sweep", "one-candidate"])
    def test_negative_jobs_exits_before_any_partitioning(
        self, capsys, monkeypatch, flags
    ):
        from repro.core import phase1, phase2

        calls = []
        for module in (phase1, phase2):
            def spy(*args, real=module.kway_min_cut, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, "kway_min_cut", spy)
        rc = main(["synth", "--benchmark", "d26_media", *flags,
                   "--jobs", "-1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "jobs must be >= 0" in captured.err and captured.out == ""
        assert calls == []

    def test_negative_jobs_exits_2_on_a_warm_store(self, tmp_path, capsys):
        argv = ["synth", "--benchmark", "d26_media", "--switches", "3:3",
                "--cache-dir", str(tmp_path / "store")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, "--jobs", "-1"]) == 2
        captured = capsys.readouterr()
        assert "jobs must be >= 0" in captured.err and captured.out == ""

    def test_infeasible_returns_one(self, tmp_path, capsys, tiny_specs):
        core_spec, comm_spec = tiny_specs
        cores_path = tmp_path / "cores.txt"
        comm_path = tmp_path / "comm.txt"
        save_core_spec_text(core_spec, cores_path)
        save_comm_spec_text(comm_spec, comm_path)
        rc = main([
            "synth", "--cores", str(cores_path), "--comm", str(comm_path),
            "--max-ill", "0", "--switches", "1:2",
        ])
        assert rc == 1


class TestSweepCommand:
    def test_sweep_frequencies_serial(self, tmp_path, capsys, tiny_specs):
        core_spec, comm_spec = tiny_specs
        cores_path = tmp_path / "cores.txt"
        comm_path = tmp_path / "comm.txt"
        save_core_spec_text(core_spec, cores_path)
        save_comm_spec_text(comm_spec, comm_path)
        rc = main([
            "sweep", "--cores", str(cores_path), "--comm", str(comm_path),
            "--max-ill", "10", "--switches", "2:3",
            "--frequencies", "200,400", "--jobs", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sweeping 2 design point(s)" in out
        assert "best design point over the grid" in out

    def test_sweep_parallel_grid(self, tmp_path, capsys, tiny_specs):
        core_spec, comm_spec = tiny_specs
        cores_path = tmp_path / "cores.txt"
        comm_path = tmp_path / "comm.txt"
        save_core_spec_text(core_spec, cores_path)
        save_comm_spec_text(comm_spec, comm_path)
        rc = main([
            "sweep", "--cores", str(cores_path), "--comm", str(comm_path),
            "--max-ill", "10", "--switches", "2:3",
            "--frequencies", "300,400", "--alphas", "0.4,0.8",
            "--jobs", "2", "--quiet",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sweeping 4 design point(s)" in out

    def test_sweep_infeasible_grid_returns_one(self, tmp_path, capsys, tiny_specs):
        core_spec, comm_spec = tiny_specs
        cores_path = tmp_path / "cores.txt"
        comm_path = tmp_path / "comm.txt"
        save_core_spec_text(core_spec, cores_path)
        save_comm_spec_text(comm_spec, comm_path)
        rc = main([
            "sweep", "--cores", str(cores_path), "--comm", str(comm_path),
            "--frequencies", "10", "--jobs", "1", "--quiet",
        ])
        assert rc == 1
        assert "no valid design points" in capsys.readouterr().out

    def test_sweep_bad_list_errors(self, tmp_path, capsys, tiny_specs):
        core_spec, comm_spec = tiny_specs
        cores_path = tmp_path / "cores.txt"
        comm_path = tmp_path / "comm.txt"
        save_core_spec_text(core_spec, cores_path)
        save_comm_spec_text(comm_spec, comm_path)
        rc = main([
            "sweep", "--cores", str(cores_path), "--comm", str(comm_path),
            "--frequencies", "abc",
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestNonFiniteArguments:
    @pytest.mark.parametrize("argv", [
        ["synth", "--frequency", "nan"],
        ["synth", "--frequency", "inf"],
        ["sweep", "--frequencies", "400,nan", "--jobs", "1"],
    ], ids=["synth-nan", "synth-inf", "sweep-nan"])
    def test_exit_two_before_any_synthesis(self, capsys, argv):
        rc = main([*argv, "--benchmark", "d26_media", "--switches", "3:4"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "frequency_mhz must be a finite number" in captured.err
        assert "design point" not in captured.out


class TestExperimentCommand:
    def test_fig1(self, capsys):
        assert main(["experiment", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "yield" in out.lower()

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99"]) == 1
        assert "unknown experiment" in capsys.readouterr().out


class TestSupervisionFlags:
    @pytest.mark.parametrize("timeout", ["0", "-5"])
    @pytest.mark.parametrize("command", ["synth", "sweep", "sim"])
    def test_bad_task_timeout_exits_before_any_work(
        self, tmp_path, capsys, tiny_specs, command, timeout
    ):
        if command == "sim":
            source = ["--benchmark", "d26_media", "--cycles", "100"]
        else:
            core_spec, comm_spec = tiny_specs
            cores_path = tmp_path / "cores.txt"
            comm_path = tmp_path / "comm.txt"
            save_core_spec_text(core_spec, cores_path)
            save_comm_spec_text(comm_spec, comm_path)
            source = ["--cores", str(cores_path), "--comm", str(comm_path),
                      "--max-ill", "10", "--switches", "2:3"]
            if command == "sweep":
                source += ["--frequencies", "400"]
        rc = main([command, *source, "--jobs", "1",
                   "--task-timeout", timeout])
        assert rc == 2
        captured = capsys.readouterr()
        assert "task_timeout_s must be positive" in captured.err
        # Rejected up front: no synthesis, no table, nothing on stdout.
        assert "best design point" not in captured.out
        assert captured.out == ""


class TestSimBatchFlag:
    """A batch width below 1 — or any other traffic knob a campaign spec
    would refuse — is refused before the prerequisite synthesis, from the
    library entry point and from ``cli sim`` alike."""

    @pytest.fixture
    def synthesis_spy(self, monkeypatch):
        from repro.experiments import simulation_validation

        calls = []

        def spy(*args):
            calls.append(args)
            raise AssertionError("synthesis ran before the batch check")

        monkeypatch.setattr(simulation_validation, "_best_power_point", spy)
        return calls

    def test_validation_rejects_batch_zero_before_synthesis(
        self, synthesis_spy
    ):
        from repro.errors import EngineError
        from repro.experiments.simulation_validation import (
            run_simulation_validation,
        )

        with pytest.raises(EngineError, match="batch must be >= 1"):
            run_simulation_validation("d26_media", cycles=100, warmup=10,
                                      batch=0)
        assert synthesis_spy == []

    def test_cli_batch_zero_exits_before_any_work(self, capsys,
                                                   synthesis_spy):
        rc = main(["sim", "--benchmark", "d26_media", "--cycles", "100",
                   "--batch", "0"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "batch must be >= 1" in captured.err
        assert captured.out == ""
        assert synthesis_spy == []

    @pytest.mark.parametrize("flags, message", [
        (["--scales", "-1"], "injection scales must be positive"),
        (["--scales", "0.5,0"], "injection scales must be positive"),
        (["--warmup", "-5"], "warmup must be >= 0"),
        (["--cycles", "0"], "cycles must exceed warmup"),
        (["--cycles", "100", "--warmup", "100"], "cycles must exceed warmup"),
        (["--packet-flits", "0"], "packet_length_flits must be >= 1"),
        (["--seeds=-2"], "seed must be >= 0"),
        (["--jobs", "-1"], "jobs must be >= 0"),
    ], ids=["negative-scale", "zero-scale", "negative-warmup", "zero-cycles",
            "warmup-equals-cycles", "zero-packet-flits", "negative-seed",
            "negative-jobs"])
    def test_cli_bad_traffic_knobs_exit_before_any_work(
        self, capsys, synthesis_spy, flags, message
    ):
        rc = main(["sim", "--benchmark", "d26_media", *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert synthesis_spy == []
