"""CLI result-store plumbing: ``cache`` subcommand, ``--cache/--cache-dir``
flags, and the clear-error contract for unusable cache directories."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.engine.store import _FRAME, ResultStore
from repro.spec.io import save_comm_spec_text, save_core_spec_text


@pytest.fixture
def spec_files(tmp_path, tiny_specs):
    core_spec, comm_spec = tiny_specs
    cores_path = tmp_path / "cores.txt"
    comm_path = tmp_path / "comm.txt"
    save_core_spec_text(core_spec, cores_path)
    save_comm_spec_text(comm_spec, comm_path)
    return str(cores_path), str(comm_path)


def _synth_args(spec_files, *extra):
    cores, comm = spec_files
    return [
        "synth", "--cores", cores, "--comm", comm,
        "--max-ill", "10", "--switches", "2:3", *extra,
    ]


class TestSynthCache:
    def test_cold_then_warm_same_output(self, spec_files, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        assert main(_synth_args(spec_files, "--cache-dir", cache_dir)) == 0
        cold_out = capsys.readouterr().out
        assert main(_synth_args(spec_files, "--cache-dir", cache_dir)) == 0
        warm_out = capsys.readouterr().out
        assert warm_out == cold_out
        assert "best design point" in warm_out

    def test_warm_run_reports_cached_stage_timings(
        self, spec_files, tmp_path, capsys
    ):
        """A whole-run store hit runs no stage, so a warm run says so in
        one line instead of a per-stage breakdown."""
        cache_dir = str(tmp_path / "store")
        args = _synth_args(
            spec_files, "--cache-dir", cache_dir, "--stage-timings"
        )
        assert main(args) == 0
        cold_out = capsys.readouterr().out
        assert "per-stage timings" in cold_out
        assert "stage cache:" in cold_out  # per-stage memoization summary
        assert main(args) == 0
        out = capsys.readouterr().out
        assert ("per-stage timings: none, the result was served from the "
                "store and no stage ran") in out
        assert "stage cache:" not in out
        assert "best design point" in out

    def test_config_change_is_a_miss(self, spec_files, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        assert main(_synth_args(spec_files, "--cache-dir", cache_dir)) == 0
        assert main(_synth_args(
            spec_files, "--cache-dir", cache_dir, "--frequency", "500",
        )) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "SynthesisTask: 2" in out
        # Stage memoization files its records per stage in the same store.
        assert "stage records (per-stage memoization):" in out
        assert "skeleton" in out


class TestSweepCache:
    def test_sweep_cache_roundtrip(self, spec_files, tmp_path, capsys):
        cores, comm = spec_files
        cache_dir = str(tmp_path / "store")
        args = [
            "sweep", "--cores", cores, "--comm", comm, "--max-ill", "10",
            "--switches", "2:3", "--frequencies", "400,600", "--jobs", "1",
            "--quiet", "--cache-dir", cache_dir,
        ]
        assert main(args) == 0
        cold_out = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == cold_out


class TestSharedStore:
    """`synth` and `sweep` file a point at one address in one format, so
    either command serves the other's entry."""

    def _sweep_args(self, spec_files, cache_dir):
        cores, comm = spec_files
        return [
            "sweep", "--cores", cores, "--comm", comm, "--max-ill", "10",
            "--switches", "2:3", "--frequencies", "400", "--jobs", "1",
            "--cache-dir", cache_dir,
        ]

    def test_synth_then_sweep(self, spec_files, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        assert main(_synth_args(spec_files, "--cache-dir", cache_dir)) == 0
        synth_out = capsys.readouterr().out
        assert main(self._sweep_args(spec_files, cache_dir)) == 0
        out = capsys.readouterr().out
        assert "store: 1 hit(s), 0 miss(es)" in out
        assert out.split("best design point over the grid:\n")[1] == (
            synth_out.split("best design point:\n")[1]
        )

    def test_sweep_then_synth(self, spec_files, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        assert main(self._sweep_args(spec_files, cache_dir)) == 0
        capsys.readouterr()
        assert main(_synth_args(
            spec_files, "--cache-dir", cache_dir, "--stage-timings",
        )) == 0
        out = capsys.readouterr().out
        assert "served from the store and no stage ran" in out
        assert "predates" not in out
        assert "best design point" in out


class TestCacheSubcommand:
    def test_stats_empty(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries: 0" in out

    def test_verify_flags_corruption_and_repairs(
        self, spec_files, tmp_path, capsys
    ):
        cache_dir = tmp_path / "store"
        assert main(_synth_args(spec_files, "--cache-dir", str(cache_dir))) == 0
        store = ResultStore(cache_dir)
        (fp,) = [fp for fp, task_type in store.entries().items()
                 if task_type == "SynthesisTask"]
        assert store.indexed(fp, refresh=True)  # indexes its frame
        pack, offset, length, _crc = store._packs.entries[fp]
        with open(store._packs.path(pack), "r+b") as fh:
            fh.seek(offset + _FRAME.size + length - 1)
            last = fh.read(1)[0]
            fh.seek(-1, 1)
            fh.write(bytes([last ^ 0xFF]))
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 1
        assert "1 bad" in capsys.readouterr().out
        assert main([
            "cache", "verify", "--cache-dir", str(cache_dir), "--repair",
        ]) == 0
        assert "1 removed" in capsys.readouterr().out
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0

    def test_clear(self, spec_files, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        assert main(_synth_args(spec_files, "--cache-dir", cache_dir)) == 0
        capsys.readouterr()
        # A cached synth writes the whole-run entry plus its stage records.
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries: 0" in capsys.readouterr().out


class TestInvalidCacheDir:
    """An unusable --cache-dir must produce a clear error (exit 2), not a
    traceback out of the store layer."""

    def test_cache_dir_is_a_file(self, spec_files, tmp_path, capsys):
        blocker = tmp_path / "occupied"
        blocker.write_text("I am a file")
        rc = main(_synth_args(spec_files, "--cache-dir", str(blocker)))
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "not a directory" in err

    def test_cache_dir_under_a_file(self, spec_files, tmp_path, capsys):
        blocker = tmp_path / "occupied"
        blocker.write_text("I am a file")
        rc = main(_synth_args(
            spec_files, "--cache-dir", str(blocker / "nested"),
        ))
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "cannot create cache directory" in err

    def test_cache_subcommand_rejects_bad_dir(self, tmp_path, capsys):
        blocker = tmp_path / "occupied"
        blocker.write_text("I am a file")
        rc = main(["cache", "stats", "--cache-dir", str(blocker)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_sim_rejects_bad_dir_before_synthesis(self, tmp_path, capsys):
        blocker = tmp_path / "occupied"
        blocker.write_text("I am a file")
        rc = main([
            "sim", "--benchmark", "d26_media", "--cache-dir", str(blocker),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
