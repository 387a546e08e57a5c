"""Tests for ``repro.analysis`` — the contract linter.

The fixture corpus under ``tests/analysis_fixtures/`` carries matched
good/bad examples per checker; each ``# expect: CODE`` comment in a bad
fixture pins the exact finding code(s) and line number the checker must
report, so the assertions here are byte-precise without hand-maintained
line tables.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis import (
    AnalysisError,
    CHECKER_REGISTRY,
    Checker,
    format_report,
    known_codes,
    lint_paths,
    load_corpus,
    resolve_checkers,
    run_checkers,
)
from repro.analysis.framework import register_checker

TESTS_DIR = Path(__file__).resolve().parent
FIXTURES = TESTS_DIR / "analysis_fixtures"
REPO_ROOT = TESTS_DIR.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"
PIPELINE = SRC_REPRO / "core" / "pipeline.py"

_EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<codes>RPL\d{3}(?:\s*,\s*RPL\d{3})*)")


def expected_findings(path: Path) -> set:
    """``{(line, code)}`` pinned by the fixture's ``# expect:`` markers."""
    out = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT_RE.search(line)
        if match is None:
            continue
        for code in re.findall(r"RPL\d{3}", match.group("codes")):
            out.add((lineno, code))
    return out


def reported_findings(report) -> set:
    return {(f.line, f.code) for f in report.findings}


# -- fixture corpus: good/bad pairs per checker ------------------------------

@pytest.mark.parametrize("fixture,checker", [
    ("stage_inputs_good.py", "stage-inputs"),
    ("determinism_good.py", "determinism"),
    ("pickling_good.py", "pickling"),
    ("batch_payload_good.py", "pickling"),
    ("lock_good.py", "lock-discipline"),
])
def test_good_fixtures_are_clean(fixture, checker):
    report = lint_paths([FIXTURES / fixture], checkers=[checker])
    assert report.clean, format_report(report)


@pytest.mark.parametrize("fixture,checker", [
    ("stage_inputs_bad.py", "stage-inputs"),
    ("determinism_bad.py", "determinism"),
    ("pickling_bad.py", "pickling"),
    ("batch_payload_bad.py", "pickling"),
    ("lock_bad.py", "lock-discipline"),
])
def test_bad_fixtures_report_exact_codes_and_lines(fixture, checker):
    path = FIXTURES / fixture
    expected = expected_findings(path)
    assert expected, f"{fixture} has no expect markers"
    report = lint_paths([path], checkers=[checker])
    assert reported_findings(report) == expected, format_report(report)


def test_bad_fixtures_cover_every_code_of_their_checker():
    """The corpus exercises the full code table, not a sample."""
    covered = set()
    for fixture in ("stage_inputs_bad.py", "determinism_bad.py",
                    "pickling_bad.py", "batch_payload_bad.py",
                    "lock_bad.py"):
        covered |= {code for _, code in expected_findings(FIXTURES / fixture)}
    per_checker = set()
    for name in ("stage-inputs", "determinism", "pickling",
                 "lock-discipline"):
        per_checker |= set(CHECKER_REGISTRY[name].codes)
    assert covered == per_checker


# -- suppressions ------------------------------------------------------------

def test_suppression_fixture_framework_findings():
    path = FIXTURES / "suppressions.py"
    report = lint_paths([path], checkers=["determinism"])
    assert reported_findings(report) == expected_findings(path), \
        format_report(report)
    # The well-formed suppression and the reasonless one both silence
    # their RPL202 (RPL002 flags the latter separately).
    assert report.suppressed == 2


def test_suppression_requires_same_line(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import time\n"
        "# repro: noqa[RPL202] -- wrong line, suppresses nothing\n"
        "t = time.time()\n"
    )
    report = lint_paths([src], checkers=["determinism"])
    codes = sorted(f.code for f in report.findings)
    assert codes == ["RPL001", "RPL202"]


def test_framework_codes_are_unsuppressible(tmp_path):
    src = tmp_path / "mod.py"
    # Reasonless noqa → RPL002 on its own line; listing RPL002 in the
    # suppression itself must not silence the framework finding.
    src.write_text("import time\nt = time.time()  # repro: noqa[RPL202,RPL002]\n")
    report = lint_paths([src], checkers=["determinism"])
    assert [f.code for f in report.findings] == ["RPL002"]
    assert report.suppressed == 1


def test_noqa_in_string_literal_is_not_a_suppression(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        'DOC = "example: # repro: noqa[RPL202] -- not a comment"\n'
    )
    report = lint_paths([src], checkers=["determinism"])
    assert report.clean, format_report(report)


def test_unused_noqa_only_flagged_for_active_checkers(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("x = 1  # repro: noqa[RPL301] -- pickling-only concern\n")
    # Determinism-only run: RPL301's checker did not run, so the
    # suppression cannot be proven unused.
    partial = lint_paths([src], checkers=["determinism"])
    assert partial.clean, format_report(partial)
    # With the pickling checker active it is provably unused.
    full = lint_paths([src], checkers=["pickling"])
    assert [f.code for f in full.findings] == ["RPL001"]


def test_unknown_noqa_code_is_flagged(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("x = 1  # repro: noqa[RPL999] -- no such code\n")
    report = lint_paths([src], checkers=["determinism"])
    assert [f.code for f in report.findings] == ["RPL003"]


# -- the tree itself ---------------------------------------------------------

def test_src_repro_lints_clean():
    """The gating property: the shipped tree has zero unsuppressed
    findings across all five checkers."""
    report = lint_paths([SRC_REPRO], project_root=REPO_ROOT)
    assert report.clean, format_report(report)
    assert set(report.checkers) == set(CHECKER_REGISTRY)
    assert report.modules > 50


def test_deleting_routing_context_input_fails_with_stage_attr_line(tmp_path):
    """Acceptance: removing one declared ``context_inputs`` entry from
    RoutingStage must fail naming the exact stage, attribute and line."""
    src = PIPELINE.read_text()
    needle = 'context_inputs = ("graph", "library", "core_centers")'
    first = src.find(needle)
    second = src.find(needle, first + 1)       # SkeletonStage declares the
    assert second != -1                        # same tuple; RoutingStage is
    munged = (                                 # the second occurrence.
        src[:second]
        + 'context_inputs = ("graph", "library")'
        + src[second + len(needle):]
    )
    target = tmp_path / "pipeline.py"
    target.write_text(munged)

    report = lint_paths([target], checkers=["stage-inputs"])
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert finding.code == "RPL101"
    assert "'routing'" in finding.message
    assert "core_centers" in finding.message
    # The line is the ctx.core_centers read inside RoutingStage.run.
    lines = munged.splitlines()
    class_line = next(
        i for i, l in enumerate(lines, 1) if "class RoutingStage" in l
    )
    read_line = next(
        i for i, l in enumerate(lines, 1)
        if i > class_line and "ctx.core_centers" in l
    )
    assert finding.line == read_line


def test_added_undeclared_ctx_read_fails(tmp_path):
    """Acceptance variant: a new undeclared ``ctx.`` read in a stage body
    is a finding even with the declarations untouched."""
    src = PIPELINE.read_text()
    anchor = "def run(self, ctx: FlowContext, state: CandidateState) -> None:\n        die_w, die_h = ctx.die_bounds"
    assert anchor in src  # PlacementLPStage.run
    munged = src.replace(
        anchor,
        anchor.replace(
            "die_w, die_h = ctx.die_bounds",
            "_sneaky = ctx.graph\n        die_w, die_h = ctx.die_bounds",
        ),
    )
    target = tmp_path / "pipeline.py"
    target.write_text(munged)
    report = lint_paths([target], checkers=["stage-inputs"])
    assert [f.code for f in report.findings] == ["RPL101"]
    assert "'placement_lp'" in report.findings[0].message
    assert "graph" in report.findings[0].message


# -- stage-salts checker -----------------------------------------------------

def _salt_mirror(tmp_path: Path) -> tuple:
    """A repo mirror with the real pipeline module and a copyable
    manifest, for tampering without touching the tree."""
    root = tmp_path / "mirror"
    module_dir = root / "src" / "repro" / "core"
    module_dir.mkdir(parents=True)
    module = module_dir / "pipeline.py"
    module.write_text(PIPELINE.read_text())
    tools = root / "tools"
    tools.mkdir()
    manifest = tools / "stage_salts.json"
    manifest.write_text((REPO_ROOT / "tools" / "stage_salts.json").read_text())
    return root, module, manifest


def _salt_report(root, module):
    return lint_paths([module], project_root=root, checkers=["stage-salts"])


def test_stage_salts_intact_manifest_is_clean(tmp_path):
    root, module, _ = _salt_mirror(tmp_path)
    report = _salt_report(root, module)
    assert report.clean, format_report(report)


def test_stage_salts_detects_source_drift(tmp_path):
    root, module, manifest = _salt_mirror(tmp_path)
    doc = json.loads(manifest.read_text())
    doc["routing"]["run_sha256"] = "0" * 64
    manifest.write_text(json.dumps(doc))
    report = _salt_report(root, module)
    assert [f.code for f in report.findings] == ["RPL504"]
    assert "'routing'" in report.findings[0].message
    assert "bump Stage.salt" in report.findings[0].message


def test_stage_salts_detects_salt_drift(tmp_path):
    root, module, manifest = _salt_mirror(tmp_path)
    doc = json.loads(manifest.read_text())
    doc["skeleton"]["salt"] = "v0-ancient"
    manifest.write_text(json.dumps(doc))
    report = _salt_report(root, module)
    assert [f.code for f in report.findings] == ["RPL504"]
    assert "'skeleton'" in report.findings[0].message


def test_stage_salts_detects_missing_and_phantom_stages(tmp_path):
    root, module, manifest = _salt_mirror(tmp_path)
    doc = json.loads(manifest.read_text())
    del doc["metrics"]
    doc["ghost-stage"] = {"salt": "v1", "run_sha256": "0" * 64}
    manifest.write_text(json.dumps(doc))
    report = _salt_report(root, module)
    codes = sorted(f.code for f in report.findings)
    assert codes == ["RPL502", "RPL503"]
    messages = " ".join(f.message for f in report.findings)
    assert "'metrics'" in messages and "'ghost-stage'" in messages


def test_stage_salts_missing_manifest(tmp_path):
    root, module, manifest = _salt_mirror(tmp_path)
    manifest.unlink()
    report = _salt_report(root, module)
    assert [f.code for f in report.findings] == ["RPL501"]


def test_stage_salts_finding_anchors_to_class_def(tmp_path):
    root, module, manifest = _salt_mirror(tmp_path)
    doc = json.loads(manifest.read_text())
    doc["routing"]["run_sha256"] = "0" * 64
    manifest.write_text(json.dumps(doc))
    report = _salt_report(root, module)
    lines = module.read_text().splitlines()
    class_line = next(
        i for i, l in enumerate(lines, 1) if l.startswith("class RoutingStage")
        or "class RoutingStage" in l
    )
    assert report.findings[0].line == class_line


def test_check_stage_salts_shim_delegates():
    """The deprecation shim lints via repro.analysis and stays green."""
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_stage_salts.py")],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "stage-salts" in proc.stdout


def test_check_stage_salts_update_is_idempotent():
    manifest = REPO_ROOT / "tools" / "stage_salts.json"
    before = manifest.read_text()
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_stage_salts.py"),
         "--update"],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert manifest.read_text() == before


# -- framework ---------------------------------------------------------------

def test_resolve_unknown_checker_raises():
    with pytest.raises(AnalysisError, match="unknown checker"):
        resolve_checkers(["no-such-checker"])


def test_lint_nonexistent_target_raises(tmp_path):
    with pytest.raises(AnalysisError, match="does not exist"):
        lint_paths([tmp_path / "missing.py"])


def test_syntax_error_in_corpus_raises(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    with pytest.raises(AnalysisError, match="cannot parse"):
        lint_paths([bad])


def test_registry_has_five_checkers_with_disjoint_codes():
    assert list(CHECKER_REGISTRY) == [
        "stage-inputs", "determinism", "pickling", "lock-discipline",
        "stage-salts",
    ]
    seen = {}
    for name, cls in CHECKER_REGISTRY.items():
        for code in cls.codes:
            assert code not in seen, f"{code} in both {seen[code]} and {name}"
            seen[code] = name
    # Framework codes are reserved on top.
    assert {"RPL001", "RPL002", "RPL003"} <= set(known_codes())
    assert not set(seen) & {"RPL001", "RPL002", "RPL003"}


def test_register_checker_rejects_code_collision():
    class Colliding(Checker):
        name = "colliding"
        codes = {"RPL201": "already owned by determinism"}

    with pytest.raises(AnalysisError, match="re-registers"):
        register_checker(Colliding)
    assert "colliding" not in CHECKER_REGISTRY


def test_checker_cannot_emit_unregistered_code(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("x = 1\n")
    context = load_corpus([src])
    checker = resolve_checkers(["determinism"])[0]
    with pytest.raises(AnalysisError, match="unregistered code"):
        checker.finding("RPL999", "nope", context.modules[0], line=1)


def test_finding_render_and_dict(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import time\nt = time.time()\n")
    report = lint_paths([src], checkers=["determinism"])
    (finding,) = report.findings
    assert finding.render().startswith("mod.py:2:")
    assert "RPL202" in finding.render()
    doc = report.as_dict()
    assert doc["clean"] is False
    assert doc["findings"][0]["code"] == "RPL202"
    parsed = json.loads(format_report(report, as_json=True))
    assert parsed["findings"][0]["line"] == 2


# -- CLI ---------------------------------------------------------------------

def _cli(*argv):
    from repro.cli import main
    return main(list(argv))


def test_cli_lint_tree_clean(capsys):
    assert _cli("lint") == 0
    out = capsys.readouterr().out
    assert "clean" in out
    assert "stage-salts" in out


def test_cli_lint_findings_exit_one(capsys):
    rc = _cli("lint", str(FIXTURES / "determinism_bad.py"),
              "--checkers", "determinism")
    assert rc == 1
    out = capsys.readouterr().out
    assert "RPL201" in out and "RPL204" in out


def test_cli_lint_json(capsys):
    rc = _cli("lint", str(FIXTURES / "pickling_bad.py"),
              "--checkers", "pickling", "--json")
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["clean"] is False
    assert {f["code"] for f in doc["findings"]} == {
        "RPL301", "RPL302", "RPL303", "RPL304",
    }


def test_cli_lint_list(capsys):
    assert _cli("lint", "--list") == 0
    out = capsys.readouterr().out
    for name in CHECKER_REGISTRY:
        assert name in out
    for code in ("RPL001", "RPL101", "RPL201", "RPL301", "RPL401", "RPL501"):
        assert code in out


def test_cli_lint_unknown_checker_is_structured_error(capsys):
    assert _cli("lint", "--checkers", "nope") == 2
    assert "unknown checker" in capsys.readouterr().err


def test_python_dash_m_repro_analysis_alias():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--checkers", "determinism",
         str(FIXTURES / "determinism_good.py")],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


# -- the contracts the linter enforces, at runtime ---------------------------

def test_lock_markers_attach_attributes_without_wrapping():
    from repro.engine.locks import acquires_lock, asserts_lock, requires_lock

    def probe():
        return 42

    marked = requires_lock("store")(probe)
    assert marked is probe
    assert probe.__requires_lock__ == "store"
    assert acquires_lock("x")(probe) is probe
    assert asserts_lock("y")(probe) is probe
    assert probe.__acquires_lock__ == "x"
    assert probe.__asserts_lock__ == "y"


def test_journal_readonly_guard_still_raises(tmp_path):
    """Regression for the `_require_writer` extraction: a read-only
    journal refuses append and compact with the structured error."""
    from repro.campaign.journal import JobJournal
    from repro.errors import JournalError

    with JobJournal(tmp_path / "journal.jsonl") as writer:
        writer.append("submitted", job="job-0001")
    reader = JobJournal(tmp_path / "journal.jsonl", writer=False)
    with pytest.raises(JournalError, match="cannot append"):
        reader.append("queued", job="job-0001")
    with pytest.raises(JournalError, match="cannot compact"):
        reader.compact()
    # And the write path still round-trips post-refactor.
    with JobJournal(tmp_path / "journal.jsonl") as writer:
        writer.append("done", job="job-0001", digest="d" * 64)
        dropped = writer.compact()
    state = JobJournal(tmp_path / "journal.jsonl", writer=False).replay()
    assert state.jobs["job-0001"].state == "done"
    assert dropped >= 0


def test_pipeline_decl_paths_config_inputs():
    """Regression for the RPL106 suppressions in Skeleton/RoutingStage:
    the whole config object goes into repro.core.paths, whose actual
    config reads must equal the curated _PATHS_CONFIG_INPUTS tuple."""
    from repro.core.pipeline import _PATHS_CONFIG_INPUTS

    source = (SRC_REPRO / "core" / "paths.py").read_text()
    reads = set(re.findall(r"\bconfig\.([a-z_0-9]+)", source))
    assert reads == set(_PATHS_CONFIG_INPUTS)
