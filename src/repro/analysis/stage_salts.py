"""Checker: a changed ``Stage.run`` body must come with a salt bump.

The port of ``tools/check_stage_salts.py`` into the linter framework
(the script survives as a deprecation shim). Stage-cache fingerprints
cover a stage's *declared inputs* plus its ``salt`` — not its code — so
a behavioural change to ``run()`` without a salt bump keeps serving
stale cached records. ``tools/stage_salts.json`` records, per stage of
the default pipeline, the current ``salt`` and the SHA-256 of the
``run()`` source; this checker recomputes both and reports drift.

Unlike the other checkers this one is not purely syntactic: the salts
live on *instances* of the pipeline's stages, so it imports
:class:`repro.core.pipeline.Pipeline` — same-process, same cost as the
old script. It only activates when the corpus contains the pipeline
module and the lint run has a project root (so fixture corpora for the
other checkers never trip it); findings are anchored to the stage's
class definition in ``src/repro/core/pipeline.py``.

Refreshing the manifest after a legitimate change stays where it was::

    python tools/check_stage_salts.py --update
"""

from __future__ import annotations

import ast
import hashlib
import inspect
import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.framework import (
    Checker,
    Finding,
    LintContext,
    ModuleSource,
    register_checker,
)

_PIPELINE_RELPATH_SUFFIX = "repro/core/pipeline.py"
_MANIFEST_RELPATH = Path("tools") / "stage_salts.json"
_UPDATE_HINT = "run `python tools/check_stage_salts.py --update` and commit"


def current_stages() -> Dict[str, Dict[str, str]]:
    """``{stage name: {"salt", "run_sha256"}}`` for the default pipeline.

    The single source of truth for the manifest format — the
    ``check_stage_salts.py`` shim's ``--update`` mode calls this too.
    """
    from repro.core.pipeline import Pipeline

    out: Dict[str, Dict[str, str]] = {}
    for stage in Pipeline().stages:
        source = inspect.getsource(type(stage).run)
        out[stage.name] = {
            "salt": stage.salt,
            "run_sha256": hashlib.sha256(source.encode("utf-8")).hexdigest(),
        }
    return out


@register_checker
class StageSaltsChecker(Checker):
    """Prove the stage-salt manifest matches the sources."""

    name = "stage-salts"
    codes = {
        "RPL501": "stage-salt manifest missing or unreadable",
        "RPL502": "stage missing from the stage-salt manifest",
        "RPL503": "stage-salt manifest entry for a stage that no longer "
                  "exists",
        "RPL504": "Stage.run changed without a salt bump (or manifest "
                  "not refreshed)",
    }

    def check(self, context: LintContext) -> List[Finding]:
        module = _pipeline_module(context)
        if module is None or context.project_root is None:
            return []

        manifest_path = context.project_root / _MANIFEST_RELPATH
        try:
            recorded = json.loads(manifest_path.read_text())
        except FileNotFoundError:
            return [self.finding(
                "RPL501",
                f"{_MANIFEST_RELPATH.as_posix()} is missing — "
                f"{_UPDATE_HINT}",
                module, line=1,
            )]
        except (OSError, json.JSONDecodeError) as exc:
            return [self.finding(
                "RPL501",
                f"{_MANIFEST_RELPATH.as_posix()} is unreadable ({exc}) — "
                f"{_UPDATE_HINT}",
                module, line=1,
            )]

        from repro.core.pipeline import Pipeline

        anchors = _class_lines(module)
        findings: List[Finding] = []
        stages = current_stages()
        class_of = {
            stage.name: type(stage).__name__
            for stage in Pipeline().stages
        }

        for name, cur in stages.items():
            line = anchors.get(class_of.get(name, ""), 1)
            old = recorded.get(name)
            if old is None:
                findings.append(self.finding(
                    "RPL502",
                    f"stage {name!r} is not in the manifest — "
                    f"{_UPDATE_HINT}",
                    module, line=line,
                ))
            elif cur["run_sha256"] != old.get("run_sha256"):
                if cur["salt"] == old.get("salt"):
                    findings.append(self.finding(
                        "RPL504",
                        f"stage {name!r}: run() changed but salt is still "
                        f"{cur['salt']!r} — bump Stage.salt so stale "
                        "cached records are invalidated (for a provably "
                        f"output-preserving refactor, {_UPDATE_HINT})",
                        module, line=line,
                    ))
                else:
                    findings.append(self.finding(
                        "RPL504",
                        f"stage {name!r}: salt bumped to {cur['salt']!r} "
                        f"but the manifest is stale — {_UPDATE_HINT}",
                        module, line=line,
                    ))
            elif cur["salt"] != old.get("salt"):
                findings.append(self.finding(
                    "RPL504",
                    f"stage {name!r}: salt changed to {cur['salt']!r} with "
                    f"run() untouched — {_UPDATE_HINT}",
                    module, line=line,
                ))

        for name in recorded:
            if name not in stages:
                findings.append(self.finding(
                    "RPL503",
                    f"manifest records stage {name!r} which is not in the "
                    f"default pipeline — {_UPDATE_HINT}",
                    module, line=1,
                ))
        return findings


def _pipeline_module(context: LintContext) -> Optional[ModuleSource]:
    for module in context.modules:
        if module.relpath.endswith(_PIPELINE_RELPATH_SUFFIX):
            return module
    return None


def _class_lines(module: ModuleSource) -> Dict[str, int]:
    return {
        node.name: node.lineno
        for node in module.tree.body
        if isinstance(node, ast.ClassDef)
    }
