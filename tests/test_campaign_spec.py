"""Declarative campaign specs: exhaustive validation and compilation."""

from __future__ import annotations

import json

import pytest

from repro.campaign.spec import (
    CampaignSpec,
    compile_campaign,
    load_campaign_file,
    validate_campaign,
)
from repro.cli import main
from repro.errors import CampaignError, CampaignSpecError

SWEEP = {
    "name": "sweep-a", "kind": "sweep", "benchmark": "d26_media",
    "grid": {"frequencies_mhz": [400, 800]},
    "config": {"max_ill": 20, "switch_count_range": [3, 4]},
}
SIM = {
    "name": "sim-a", "kind": "sim", "benchmark": "d26_media",
    "scenarios": ["bernoulli", "hotspot:3"], "seeds": [0, 1],
    "injection_scales": [0.2], "cycles": 600, "warmup": 60,
    "config": {"switch_count_range": [3, 4]},
}


def paths_of(issues):
    return [issue.path for issue in issues]


def test_valid_specs_produce_no_issues():
    assert validate_campaign(SWEEP) == []
    assert validate_campaign(SIM) == []


def test_minimal_spec_defaults():
    spec = CampaignSpec.from_dict({"name": "tiny"})
    assert spec.kind == "sweep"
    assert spec.benchmark == "d26_media"
    assert spec.dims == "3d"
    assert spec.task_count == 1  # empty grid = the single base point


def test_every_problem_reported_with_its_path():
    """The satellite requirement: ALL errors, each with a JSON path."""
    issues = validate_campaign({
        "kind": "sweep",                                  # name missing
        "benchmark": "not-a-benchmark",
        "dims": "4d",
        "grid": {
            "frequencies_mhz": [400, -1, "x"],
            "alphas": [2.0],
            "link_widths_bits": [0],
            "switch_count_ranges": [[4, 2]],
            "bogus_dim": [1],
        },
        "config": {"max_ill": -3, "no_such_field": 1},
        "mystery": True,
    })
    got = paths_of(issues)
    for expected in (
        "name", "benchmark", "dims",
        "grid.frequencies_mhz[1]", "grid.frequencies_mhz[2]",
        "grid.alphas[0]", "grid.link_widths_bits[0]",
        "grid.switch_count_ranges[0]", "grid.bogus_dim",
        "config.max_ill", "config.no_such_field", "mystery",
    ):
        assert expected in got, f"missing issue for {expected}: {got}"


def test_stages_key_is_rejected(tmp_path, capsys):
    """The Fig. 3 stage sequence is fixed: a spec naming ``stages`` is
    refused instead of being accepted and then ignored."""
    data = {**SWEEP, "stages": ["precheck"]}
    assert [(i.path, i.message) for i in validate_campaign(data)] == [
        ("stages", "unknown key"),
    ]
    with pytest.raises(CampaignSpecError):
        CampaignSpec.from_dict(data)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert main(["campaign", "validate", str(path)]) == 2
    assert "stages: unknown key" in capsys.readouterr().err


def test_removed_config_keys_reported(tmp_path, capsys):
    # The θ sweep is a Phase 1 constant, not a configuration field: a spec
    # (or a journaled job) still setting it is refused, key by key.
    issues = validate_campaign({
        "name": "x",
        "config": {"theta_min": 10.0, "theta_max": 5.0},
    })
    assert {"config.theta_min", "config.theta_max"} <= set(paths_of(issues))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(SWEEP, config={"theta_max": 9})))
    assert main(["campaign", "validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config.theta_max" in err
    assert "unknown SynthesisConfig field" in err


def test_inserter_knob_reported(tmp_path, capsys):
    # The inserter's search grid is a floorplan constant: setting it is an
    # unknown configuration field.
    data = dict(SWEEP, config={"grid_step_mm": 0})
    assert "config.grid_step_mm" in paths_of(validate_campaign(data))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert main(["campaign", "validate", str(path)]) == 2
    assert "config.grid_step_mm" in capsys.readouterr().err


def test_too_fine_inserter_grid_reported():
    # A 1e-6 mm step under the 1 mm radius would ask the worker for about
    # 4e12 candidate offsets; the spec is refused up front.
    issues = validate_campaign(dict(SWEEP, config={"grid_step_mm": 1e-6}))
    assert "config.grid_step_mm" in paths_of(issues)
    with pytest.raises(CampaignSpecError):
        CampaignSpec.from_dict(dict(SWEEP, config={"grid_step_mm": 1e-6}))


def test_sim_keys_rejected_on_sweep_and_vice_versa():
    issues = validate_campaign({"name": "x", "kind": "sweep", "seeds": [1]})
    assert any(
        i.path == "seeds" and "sim" in i.message for i in issues
    )
    issues = validate_campaign({
        "name": "x", "kind": "sim", "grid": {"frequencies_mhz": [400]},
    })
    assert any(
        i.path == "grid" and "sweep" in i.message for i in issues
    )


def test_sim_traffic_validation():
    issues = validate_campaign({
        "name": "x", "kind": "sim",
        "scenarios": ["bernoulli", "marsattacks"],
        "seeds": [0, -1], "injection_scales": [0.0],
        "cycles": 100, "warmup": 100,
    })
    got = paths_of(issues)
    for expected in (
        "scenarios[1]", "seeds[1]", "injection_scales[0]", "warmup",
    ):
        assert expected in got, f"missing issue for {expected}: {got}"


def test_non_dict_spec_is_one_issue():
    issues = validate_campaign([1, 2])
    assert paths_of(issues) == ["$"]


def test_from_dict_raises_with_all_issues():
    with pytest.raises(CampaignSpecError) as excinfo:
        CampaignSpec.from_dict({"benchmark": "zzz", "dims": "5d"})
    assert len(excinfo.value.issues) == 3  # name + benchmark + dims
    message = str(excinfo.value)
    assert "benchmark" in message and "dims" in message


def test_round_trip_through_to_dict():
    for data in (SWEEP, SIM):
        spec = CampaignSpec.from_dict(data)
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again == spec


def test_task_count():
    assert CampaignSpec.from_dict(SWEEP).task_count == 2
    assert CampaignSpec.from_dict(SIM).task_count == 4  # 2 scen × 2 seeds


def test_compile_sweep_applies_overrides():
    tasks = compile_campaign(CampaignSpec.from_dict(SWEEP))
    assert len(tasks) == 2
    assert {t.config.frequency_mhz for t in tasks} == {400.0, 800.0}
    assert all(t.config.max_ill == 20 for t in tasks)
    assert all(t.config.switch_count_range == (3, 4) for t in tasks)


def test_compile_is_deterministic():
    spec = CampaignSpec.from_dict(SWEEP)
    assert compile_campaign(spec) == compile_campaign(spec)


def test_compile_2d_forces_phase1():
    spec = CampaignSpec.from_dict({**SWEEP, "dims": "2d"})
    tasks = compile_campaign(spec)
    assert all(t.config.phase == "phase1" for t in tasks)


def test_cli_synth_2d_and_2d_campaign_share_synthesis_address(tmp_path):
    """Both doors resolve ``dims="2d"`` through ``Benchmark.variant``: the
    campaign's task is filed where ``cli synth --dims 2d`` stored it."""
    from repro.engine.store import ResultStore

    store_dir = tmp_path / "store"
    assert main([
        "synth", "--benchmark", "d26_media", "--dims", "2d",
        "--switches", "3:4", "--cache-dir", str(store_dir),
    ]) == 0
    spec = CampaignSpec.from_dict({
        "name": "flat", "benchmark": "d26_media", "dims": "2d",
        "config": {"switch_count_range": [3, 4]},
    })
    (task,) = compile_campaign(spec)
    store = ResultStore(store_dir)
    assert store.get(store.fingerprint(task)) is not None


def test_non_finite_and_non_integer_values_named(tmp_path, capsys):
    """NaN (which Python's json parses), fractional counts and a string
    seed are refused at validation, each under its own path."""
    nan = float("nan")
    sweep = {
        **SWEEP, "grid": {"frequencies_mhz": [400, nan]},
        "config": {
            "seed": "s", "switch_count_range": [3.5, 4],
            "link_width_bits": 1.5, "max_ill": 2.5, "alpha": nan,
        },
    }
    got = paths_of(validate_campaign(sweep))
    for expected in (
        "grid.frequencies_mhz[1]", "config.seed",
        "config.switch_count_range", "config.link_width_bits",
        "config.max_ill", "config.alpha",
    ):
        assert expected in got, f"missing issue for {expected}: {got}"
    sim = {**SIM, "injection_scales": [0.2, nan, float("inf")]}
    assert paths_of(validate_campaign(sim)) == [
        "injection_scales[1]", "injection_scales[2]",
    ]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(sweep))
    assert "NaN" in path.read_text()
    assert main(["campaign", "validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "grid.frequencies_mhz[1]" in err and "config.seed" in err


@pytest.mark.slow
def test_compile_sim_builds_simulation_tasks(tmp_path):
    from repro.engine.store import ResultStore
    from repro.engine.tasks import SimulationTask

    store = ResultStore(tmp_path / "store")
    spec = CampaignSpec.from_dict(SIM)
    tasks = compile_campaign(spec, store=store)
    assert len(tasks) == 4
    assert all(isinstance(t, SimulationTask) for t in tasks)
    assert {t.key[0] for t in tasks} == {"bernoulli", "hotspot(core 3)"} or \
           len({t.key for t in tasks}) == 4
    # Synthesis was checkpointed: recompiling is a store hit, same tasks.
    again = compile_campaign(spec, store=store)
    assert store.hits >= 1
    assert [t.key for t in again] == [t.key for t in tasks]


def test_load_campaign_file_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SWEEP))
    assert load_campaign_file(path) == CampaignSpec.from_dict(SWEEP)


def test_load_campaign_file_yaml(tmp_path):
    yaml = pytest.importorskip("yaml")
    path = tmp_path / "spec.yaml"
    path.write_text(yaml.safe_dump(SWEEP))
    assert load_campaign_file(path) == CampaignSpec.from_dict(SWEEP)


def test_load_campaign_file_bad_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("{not json")
    with pytest.raises(CampaignError, match="invalid JSON"):
        load_campaign_file(path)


def test_load_campaign_file_missing(tmp_path):
    with pytest.raises(CampaignError, match="cannot read"):
        load_campaign_file(tmp_path / "nope.json")


# -- CLI: campaign validate -------------------------------------------------

def test_cli_validate_ok(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SWEEP))
    assert main(["campaign", "validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "sweep-a" in out


def test_cli_validate_invalid_exits_2_listing_everything(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "benchmark": "zzz",
        "grid": {"frequencies_mhz": [-1, -2]},
    }))
    assert main(["campaign", "validate", str(path)]) == 2
    err = capsys.readouterr().err
    for fragment in (
        "name", "benchmark",
        "grid.frequencies_mhz[0]", "grid.frequencies_mhz[1]",
    ):
        assert fragment in err, f"{fragment} not reported: {err}"


# -- CLI: campaign run ------------------------------------------------------

def test_cli_run_reports_failed_tasks_and_runs_the_rest(
    tmp_path, capsys, monkeypatch
):
    """A failing task is counted, not raised: every other task still runs,
    the summary prints, and the command exits 1."""
    import repro.core.synthesis as synthesis

    real = synthesis.synthesize

    def synthesize(core_spec, comm_spec, library, config, **kwargs):
        if config.frequency_mhz == 500:
            raise RuntimeError("injected failure at 500 MHz")
        return real(core_spec, comm_spec, library, config, **kwargs)

    monkeypatch.setattr(synthesis, "synthesize", synthesize)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        dict(SWEEP, grid={"frequencies_mhz": [400, 500, 600]})
    ))
    assert main(["campaign", "run", str(path), "--jobs", "1"]) == 1
    out = capsys.readouterr().out
    assert "[3/3]" in out  # the task after the failure ran too
    assert "done: 2 ok, 1 failed" in out
