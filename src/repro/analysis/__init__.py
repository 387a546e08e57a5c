"""``repro.analysis`` — the contract linter.

Importing this package registers the five checkers; :func:`lint_paths`
is the one-call entry point the CLI, ``make lint`` and the tests share.
See :mod:`repro.analysis.framework` for the framework itself and
``docs/analysis.md`` for the checker catalog, code table and suppression
policy.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

from repro.analysis.framework import (
    AnalysisError,
    CHECKER_REGISTRY,
    CODE_NOQA_NO_REASON,
    CODE_NOQA_UNKNOWN,
    CODE_NOQA_UNUSED,
    Checker,
    Finding,
    LintContext,
    LintReport,
    ModuleSource,
    Suppression,
    format_report,
    known_codes,
    load_corpus,
    register_checker,
    resolve_checkers,
    run_checkers,
)

# Importing a checker module registers its checker; registry order is
# documentation order.
from repro.analysis import stage_inputs as _stage_inputs       # noqa: F401
from repro.analysis import determinism as _determinism         # noqa: F401
from repro.analysis import pickling as _pickling               # noqa: F401
from repro.analysis import lock_discipline as _lock_discipline  # noqa: F401
from repro.analysis import stage_salts as _stage_salts         # noqa: F401


def lint_paths(
    paths: Sequence[Union[str, Path]],
    *,
    project_root: Optional[Union[str, Path]] = None,
    checkers: Optional[Sequence[str]] = None,
) -> LintReport:
    """Load a corpus, run checkers, fold in suppressions."""
    context = load_corpus(paths, project_root=project_root)
    return run_checkers(context, resolve_checkers(checkers))


__all__ = [
    "AnalysisError",
    "CHECKER_REGISTRY",
    "CODE_NOQA_NO_REASON",
    "CODE_NOQA_UNKNOWN",
    "CODE_NOQA_UNUSED",
    "Checker",
    "Finding",
    "LintContext",
    "LintReport",
    "ModuleSource",
    "Suppression",
    "format_report",
    "known_codes",
    "lint_paths",
    "load_corpus",
    "register_checker",
    "resolve_checkers",
    "run_checkers",
]
