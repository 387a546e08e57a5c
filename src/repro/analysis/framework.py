"""The contract-linter framework: findings, suppressions, checker registry.

Every tier of this repo rests on hand-maintained conventions: a pipeline
stage must read exactly its declared inputs (or the stage cache serves
stale results), every random draw must flow through :func:`repro.rng.
make_rng` (or warm and cold runs diverge), engine task payloads must stay
pickling-safe (or the process pool breaks mid-campaign), and multi-file
store/journal mutations must happen under a :class:`~repro.engine.locks.
FileLock` (or two processes race each other's walks). This package turns
those conventions into **build failures**: each convention is a
:class:`Checker` walking the ASTs of ``src/repro`` and emitting
:class:`Finding`\\ s with stable ``RPL###`` codes; ``python -m repro.cli
lint`` (and ``make lint``, wired into ``make check``) exits non-zero on
any unsuppressed finding.

Suppressions are per-line comments that **require a reason**::

    created = time.time()  # repro: noqa[RPL202] -- bookkeeping clock,
                           # never fingerprinted

* ``# repro: noqa[RPL202]`` suppresses code RPL202 on that line only
  (multiple codes: ``noqa[RPL101,RPL105]``);
* a suppression without a ``-- reason`` text is itself a finding
  (:data:`CODE_NOQA_NO_REASON`);
* a suppression that suppressed nothing is itself a finding
  (:data:`CODE_NOQA_UNUSED`) — suppressions cannot rot silently;
* framework findings (``RPL00x``) are deliberately unsuppressible.

See ``docs/analysis.md`` for the checker catalog and the policy on adding
checkers.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.errors import ReproError


class AnalysisError(ReproError):
    """A linter invocation problem (bad corpus path, unknown checker...).

    Never raised for *findings* — those are data, not errors."""


# -- framework finding codes (unsuppressible) -------------------------------

#: A ``noqa`` comment that suppressed nothing.
CODE_NOQA_UNUSED = "RPL001"
#: A ``noqa`` comment without a ``-- reason`` text.
CODE_NOQA_NO_REASON = "RPL002"
#: A ``noqa`` comment naming a code no registered checker can emit.
CODE_NOQA_UNKNOWN = "RPL003"

_FRAMEWORK_CODES = {
    CODE_NOQA_UNUSED: "unused suppression",
    CODE_NOQA_NO_REASON: "suppression missing its reason",
    CODE_NOQA_UNKNOWN: "suppression names an unknown code",
}

#: Matches ``repro: noqa[RPL101]`` / ``repro: noqa[RPL101,RPL105] -- reason``
#: comment bodies (the leading hash is part of the pattern).
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\[(?P<codes>[A-Z0-9, ]+)\]"
    r"(?:\s*--\s*(?P<reason>.*\S))?"
)


@dataclass(frozen=True)
class Finding:
    """One contract violation, anchored to a source line."""

    code: str
    message: str
    path: str            #: repo-relative (or as-given) posix path
    line: int
    checker: str = ""
    col: int = 0

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "checker": self.checker,
        }


@dataclass
class Suppression:
    """One parsed ``# repro: noqa[...]`` comment."""

    path: str
    line: int
    codes: Tuple[str, ...]
    reason: str = ""
    used: set = field(default_factory=set)


@dataclass
class ModuleSource:
    """One parsed source file of the lint corpus."""

    path: Path           #: absolute path on disk
    relpath: str         #: stable display path (posix, repo-relative)
    text: str
    tree: ast.Module
    suppressions: List[Suppression] = field(default_factory=list)

    @classmethod
    def load(cls, path: Path, relpath: str) -> "ModuleSource":
        text = path.read_text()
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            raise AnalysisError(f"cannot parse {relpath}: {exc}") from None
        module = cls(path=path, relpath=relpath, text=text, tree=tree)
        # Only real COMMENT tokens count — a noqa-shaped example inside a
        # docstring or string literal is text, not a suppression.
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(token.string)
            if match is None:
                continue
            codes = tuple(
                code.strip()
                for code in match.group("codes").split(",")
                if code.strip()
            )
            module.suppressions.append(Suppression(
                path=relpath, line=token.start[0], codes=codes,
                reason=(match.group("reason") or "").strip(),
            ))
        return module


@dataclass
class LintContext:
    """Everything a checker may look at: the corpus plus repo anchors."""

    modules: List[ModuleSource]
    #: Repo root (for out-of-tree anchors like ``tools/stage_salts.json``);
    #: ``None`` when linting a loose file corpus (tests, fixtures).
    project_root: Optional[Path] = None

    def module(self, relpath: str) -> Optional[ModuleSource]:
        for module in self.modules:
            if module.relpath == relpath:
                return module
        return None


class Checker:
    """One contract, as a corpus-wide AST pass.

    Subclasses set :attr:`name` (the CLI handle) and :attr:`codes`
    (``{code: one-line description}`` — the registry rejects code
    collisions between checkers) and implement :meth:`check`, returning
    findings for the whole corpus. Checkers must not mutate the corpus
    and must anchor every finding to a real (path, line) so suppressions
    can target it.
    """

    name: str = ""
    codes: Dict[str, str] = {}

    def check(self, context: LintContext) -> List[Finding]:
        raise NotImplementedError

    def finding(
        self, code: str, message: str, module: ModuleSource,
        node: Optional[ast.AST] = None, line: Optional[int] = None,
    ) -> Finding:
        if code not in self.codes:
            raise AnalysisError(
                f"checker {self.name!r} emitted unregistered code {code}"
            )
        return Finding(
            code=code,
            message=message,
            path=module.relpath,
            line=line if line is not None else getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) if node is not None else 0,
            checker=self.name,
        )


#: name -> checker class, in registration (= documentation) order.
CHECKER_REGISTRY: Dict[str, Type[Checker]] = {}


def register_checker(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator: file a checker under ``cls.name``."""
    if not cls.name:
        raise AnalysisError(f"checker class {cls.__name__} has no name")
    if cls.name in CHECKER_REGISTRY:
        raise AnalysisError(f"duplicate checker name {cls.name!r}")
    for code in cls.codes:
        owner = _code_owner(code)
        if owner is not None:
            raise AnalysisError(
                f"checker {cls.name!r} re-registers code {code} "
                f"(owned by {owner})"
            )
    CHECKER_REGISTRY[cls.name] = cls
    return cls


def _code_owner(code: str) -> Optional[str]:
    if code in _FRAMEWORK_CODES:
        return "framework"
    for name, cls in CHECKER_REGISTRY.items():
        if code in cls.codes:
            return name
    return None


def known_codes() -> Dict[str, str]:
    """Every registered code -> description (framework codes included)."""
    codes = dict(_FRAMEWORK_CODES)
    for cls in CHECKER_REGISTRY.values():
        codes.update(cls.codes)
    return codes


# -- corpus loading ---------------------------------------------------------

def load_corpus(
    paths: Sequence[Union[str, Path]],
    *,
    project_root: Optional[Union[str, Path]] = None,
) -> LintContext:
    """Build a :class:`LintContext` from files and/or directory trees.

    Directories are walked recursively for ``*.py`` (``__pycache__``
    skipped); display paths are made relative to ``project_root`` when
    given, else to the scanned directory's parent.
    """
    root = Path(project_root).resolve() if project_root is not None else None
    modules: List[ModuleSource] = []
    seen: set = set()
    for raw in paths:
        base = Path(raw).resolve()
        if not base.exists():
            raise AnalysisError(f"lint target {raw} does not exist")
        if base.is_dir():
            files = sorted(
                p for p in base.rglob("*.py") if "__pycache__" not in p.parts
            )
            rel_anchor = root if root is not None else base.parent
        else:
            files = [base]
            rel_anchor = root if root is not None else base.parent
        for file in files:
            if file in seen:
                continue
            seen.add(file)
            try:
                relpath = file.relative_to(rel_anchor).as_posix()
            except ValueError:
                relpath = file.name
            modules.append(ModuleSource.load(file, relpath))
    return LintContext(modules=modules, project_root=root)


# -- running ----------------------------------------------------------------

@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding]
    suppressed: int = 0
    checkers: Tuple[str, ...] = ()
    modules: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def as_dict(self) -> Dict[str, object]:
        return {
            "findings": [f.as_dict() for f in self.findings],
            "suppressed": self.suppressed,
            "checkers": list(self.checkers),
            "modules": self.modules,
            "clean": self.clean,
        }


def resolve_checkers(
    names: Optional[Sequence[str]] = None,
) -> List[Checker]:
    """Instantiate the named checkers (default: all, registry order)."""
    if names is None:
        return [cls() for cls in CHECKER_REGISTRY.values()]
    checkers = []
    for name in names:
        if name not in CHECKER_REGISTRY:
            raise AnalysisError(
                f"unknown checker {name!r}; registered: "
                f"{', '.join(CHECKER_REGISTRY)}"
            )
        checkers.append(CHECKER_REGISTRY[name]())
    return checkers


def run_checkers(
    context: LintContext,
    checkers: Optional[Sequence[Checker]] = None,
) -> LintReport:
    """Run checkers over a loaded corpus and fold in suppressions.

    The pipeline is: collect raw findings → drop the ones a same-line
    ``noqa`` covers (marking the suppression used) → append framework
    findings for malformed or unused suppressions (only for codes whose
    checker actually ran, so a partial ``--checkers`` run cannot mis-flag
    a foreign suppression as unused).
    """
    active = list(checkers) if checkers is not None else resolve_checkers()
    raw: List[Finding] = []
    for checker in active:
        raw.extend(checker.check(context))

    active_codes = set()
    for checker in active:
        active_codes.update(checker.codes)

    suppressions: Dict[Tuple[str, int], List[Suppression]] = {}
    for module in context.modules:
        for sup in module.suppressions:
            suppressions.setdefault((sup.path, sup.line), []).append(sup)

    kept: List[Finding] = []
    suppressed = 0
    for finding in raw:
        sups = suppressions.get((finding.path, finding.line), ())
        hit = None
        for sup in sups:
            if finding.code in sup.codes and finding.code not in _FRAMEWORK_CODES:
                hit = sup
                break
        if hit is not None:
            hit.used.add(finding.code)
            suppressed += 1
        else:
            kept.append(finding)

    codes = known_codes()
    for module in context.modules:
        for sup in module.suppressions:
            if not sup.reason:
                kept.append(Finding(
                    code=CODE_NOQA_NO_REASON,
                    message=(
                        f"suppression of [{', '.join(sup.codes)}] has no "
                        "reason; write `# repro: noqa[CODE] -- why`"
                    ),
                    path=sup.path, line=sup.line, checker="framework",
                ))
            for code in sup.codes:
                if code not in codes:
                    kept.append(Finding(
                        code=CODE_NOQA_UNKNOWN,
                        message=f"suppression names unknown code {code}",
                        path=sup.path, line=sup.line, checker="framework",
                    ))
                elif code in active_codes and code not in sup.used:
                    kept.append(Finding(
                        code=CODE_NOQA_UNUSED,
                        message=(
                            f"unused suppression of {code} "
                            f"({codes[code]}): nothing to suppress here"
                        ),
                        path=sup.path, line=sup.line, checker="framework",
                    ))

    kept.sort(key=lambda f: (f.path, f.line, f.code))
    return LintReport(
        findings=kept,
        suppressed=suppressed,
        checkers=tuple(checker.name for checker in active),
        modules=len(context.modules),
    )


# -- output -----------------------------------------------------------------

def format_report(report: LintReport, *, as_json: bool = False) -> str:
    """Render a report for the CLI (one line per finding, plus a tally)."""
    if as_json:
        return json.dumps(report.as_dict(), indent=2)
    lines = [finding.render() for finding in report.findings]
    tally = (
        f"{len(report.findings)} finding(s)"
        if report.findings else "clean"
    )
    extra = f" ({report.suppressed} suppressed)" if report.suppressed else ""
    lines.append(
        f"lint: {tally}{extra} — {report.modules} file(s), "
        f"checkers: {', '.join(report.checkers)}"
    )
    return "\n".join(lines)


# -- AST helpers shared by checkers -----------------------------------------

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def decorator_marker(
    node: ast.AST, marker_names: Sequence[str]
) -> Optional[Tuple[str, Optional[str]]]:
    """Match ``@marker("lock-name")`` decorators.

    Returns ``(marker, lock_name)`` when ``node`` is a call to one of
    ``marker_names`` (bare or attribute-qualified) with a string literal
    first argument — ``lock_name`` is ``None`` for a bare ``@marker``.
    """
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is None:
            return None
        tail = name.rsplit(".", 1)[-1]
        if tail in marker_names:
            if node.args and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                return tail, node.args[0].value
            return tail, None
        return None
    name = dotted_name(node)
    if name is not None and name.rsplit(".", 1)[-1] in marker_names:
        return name.rsplit(".", 1)[-1], None
    return None
