"""Checker: engine task payloads must survive a round trip through pickle.

Everything the process pool ships — ``SynthesisTask``, ``CandidateTask``,
``SimulationTask``, ``FaultyTask`` … — crosses a fork/spawn boundary as a
pickle. A lambda, nested function, generator, lock, or open file handle
bound into such a payload does not fail at construction time; it fails
**inside the pool**, mid-campaign, as an opaque ``PicklingError`` from a
worker — the single worst place in this codebase to debug. This checker
moves that failure to lint time.

Scope: every class whose name ends in ``Task`` (the payload naming
convention; ``*Result`` classes are produced *by* workers and excluded).
Within such a class, three binding sites are examined:

* class-level attribute / dataclass field defaults,
* ``field(default=...)`` / ``field(default_factory=...)`` arguments,
* ``self.<attr> = ...`` assignments in any method.

and four value shapes are banned: lambdas and references to functions
defined in an enclosing local scope (pickle stores them by qualified
name, which the worker cannot resolve), generator expressions /
generator-function calls (a paused frame has no pickle form), lock
constructions (``threading.Lock`` and friends, ``FileLock``), and file
handles (``open``, ``Path.open``, ``NamedTemporaryFile``).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.framework import (
    Checker,
    Finding,
    LintContext,
    ModuleSource,
    dotted_name,
    register_checker,
)

#: Constructors whose result holds OS lock state.
_LOCK_CONSTRUCTORS = frozenset({
    "Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition",
    "Event", "Barrier", "FileLock",
})

#: Calls that return open file handles.
_HANDLE_CONSTRUCTORS = frozenset({
    "open", "fdopen", "NamedTemporaryFile", "TemporaryFile", "popen",
    "Popen", "socket",
})


@register_checker
class PicklingChecker(Checker):
    """Prove ``*Task`` payloads contain nothing pickle refuses."""

    name = "pickling"
    codes = {
        "RPL301": "lambda or local function bound into a task payload",
        "RPL302": "generator bound into a task payload",
        "RPL303": "lock object bound into a task payload",
        "RPL304": "file or OS handle bound into a task payload",
    }

    def check(self, context: LintContext) -> List[Finding]:
        findings: List[Finding] = []
        for module in context.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and _is_task_class(node):
                    findings.extend(self._check_class(module, node))
        return findings

    def _check_class(
        self, module: ModuleSource, cls: ast.ClassDef
    ) -> List[Finding]:
        findings: List[Finding] = []
        generator_fns = _module_generator_functions(module.tree)

        # Class-level defaults (covers dataclass fields).
        for item in cls.body:
            attr: Optional[str] = None
            value: Optional[ast.expr] = None
            if isinstance(item, ast.Assign) and len(item.targets) == 1 \
                    and isinstance(item.targets[0], ast.Name):
                attr, value = item.targets[0].id, item.value
            elif isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name):
                attr, value = item.target.id, item.value
            if attr is not None and value is not None:
                findings.extend(self._check_value(
                    module, cls.name, attr, value, generator_fns,
                    local_fns=set(), site="default of",
                ))

        # self.<attr> = ... in methods.
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local_fns = {
                sub.name for sub in ast.walk(item)
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                and sub is not item
            }
            for sub in ast.walk(item):
                if not isinstance(sub, ast.Assign):
                    continue
                for target in sub.targets:
                    if isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self":
                        findings.extend(self._check_value(
                            module, cls.name, target.attr, sub.value,
                            generator_fns, local_fns=local_fns,
                            site="assignment to",
                        ))
        return findings

    def _check_value(
        self,
        module: ModuleSource,
        cls_name: str,
        attr: str,
        value: ast.expr,
        generator_fns: Set[str],
        *,
        local_fns: Set[str],
        site: str,
    ) -> List[Finding]:
        findings: List[Finding] = []
        where = f"{site} {cls_name}.{attr}"

        # One flat walk covers nested shapes too: a lambda inside a
        # field(default_factory=...) call or a tuple literal is the same
        # pickling hazard as a bare one.
        for node in ast.walk(value):
            if isinstance(node, ast.Lambda):
                findings.append(self.finding(
                    "RPL301",
                    f"{where} binds a lambda — pickle stores functions by "
                    "qualified name, which the pool worker cannot resolve",
                    module, node,
                ))
            elif isinstance(node, ast.Name) and node.id in local_fns:
                findings.append(self.finding(
                    "RPL301",
                    f"{where} binds local function {node.id!r} — pickle "
                    "stores functions by qualified name, which the pool "
                    "worker cannot resolve",
                    module, node,
                ))
            elif isinstance(node, ast.GeneratorExp):
                findings.append(self.finding(
                    "RPL302",
                    f"{where} binds a generator expression — a paused "
                    "frame has no pickle form; materialise a tuple instead",
                    module, node,
                ))
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                tail = name.rsplit(".", 1)[-1] if name else ""
                if tail in generator_fns:
                    findings.append(self.finding(
                        "RPL302",
                        f"{where} binds the generator returned by "
                        f"{tail}() — a paused frame has no pickle form; "
                        "materialise a tuple instead",
                        module, node,
                    ))
                elif tail in _LOCK_CONSTRUCTORS:
                    findings.append(self.finding(
                        "RPL303",
                        f"{where} binds a {tail}() — lock state is "
                        "process-local and unpicklable; acquire locks in "
                        "the worker, not in the payload",
                        module, node,
                    ))
                elif tail in _HANDLE_CONSTRUCTORS:
                    findings.append(self.finding(
                        "RPL304",
                        f"{where} binds the handle returned by {tail}() — "
                        "OS handles are process-local; ship the path and "
                        "open it in the worker",
                        module, node,
                    ))
        return findings


def _module_generator_functions(tree: ast.Module) -> Set[str]:
    """Names of generator functions anywhere in the module."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _has_direct_yield(node)
    }


def _has_direct_yield(fn: ast.AST) -> bool:
    """Whether ``fn`` itself yields (yields in nested defs don't count)."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


def _is_task_class(node: ast.ClassDef) -> bool:
    return node.name.endswith("Task") and not node.name.endswith("Result")
