"""Checker: lock-requiring internals are only reached from lock-holding sites.

The store and the journal both follow the same shape: public mutators
acquire a :class:`~repro.engine.locks.FileLock`, then call ``_locked``
internals that assume the lock is held. Nothing at runtime enforces that
assumption — calling ``_clear`` without the store lock silently races a
concurrent process's directory walk. The contract is made
checkable with three zero-cost markers from :mod:`repro.engine.locks`:

* ``@requires_lock("store")`` — the function **assumes** the named lock
  is already held by its caller;
* ``@acquires_lock("store")`` — calling the function takes (or returns a
  holder of) the named lock;
* ``@asserts_lock("journal")`` — the function verifies lock ownership
  and raises if absent (the journal's ``_require_writer`` guard).

A call to a ``requires_lock(L)``-marked function is **satisfied** when
any of these holds at the call site:

1. the enclosing function is itself marked ``requires_lock(L)`` or
   ``acquires_lock(L)`` (the obligation moves up / is met internally);
2. a call to an ``acquires_lock(L)``- or ``asserts_lock(L)``-marked
   function appears lexically before it in the same enclosing function;
3. a ``FileLock(...)`` is constructed lexically before it in the same
   enclosing function (satisfies any lock name — the lock's identity is
   a runtime path the AST cannot resolve).

This is a lexical, not a path-sensitive, analysis: it will not notice a
``lock = self._mutation_lock(wait=False)`` whose ``None`` (not-acquired)
arm falls through — but that shape already raises at runtime in this
codebase, and lexical discipline is exactly the property that survives
refactors: you cannot *reach* a ``_locked`` internal without writing the
acquisition into the same function first.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.framework import (
    Checker,
    Finding,
    LintContext,
    ModuleSource,
    decorator_marker,
    dotted_name,
    register_checker,
)

_MARKERS = ("requires_lock", "acquires_lock", "asserts_lock")


@dataclass(frozen=True)
class _Marked:
    """One marker on one function, keyed by the function's bare name."""

    marker: str     # "requires_lock" | "acquires_lock" | "asserts_lock"
    lock: str


@register_checker
class LockDisciplineChecker(Checker):
    """Prove ``@requires_lock`` internals are called with the lock held."""

    name = "lock-discipline"
    codes = {
        "RPL401": "lock-requiring function called from a site that does "
                  "not hold the lock",
        "RPL402": "lock marker without a lock name",
    }

    def check(self, context: LintContext) -> List[Finding]:
        findings: List[Finding] = []
        #: bare function name -> markers on it, across the whole corpus
        #: (call sites use bare names: ``self._clear``, ``_guard()``).
        marked: Dict[str, List[_Marked]] = {}

        for module in context.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for deco in node.decorator_list:
                    hit = decorator_marker(deco, _MARKERS)
                    if hit is None:
                        continue
                    marker, lock = hit
                    if lock is None:
                        findings.append(self.finding(
                            "RPL402",
                            f"@{marker} on {node.name!r} names no lock — "
                            "write @"
                            f"{marker}(\"<lock-name>\")",
                            module, deco,
                        ))
                        continue
                    marked.setdefault(node.name, []).append(
                        _Marked(marker=marker, lock=lock)
                    )

        requires: Dict[str, Set[str]] = {}
        satisfiers: Dict[str, Set[str]] = {}
        for name, marks in marked.items():
            for mark in marks:
                if mark.marker == "requires_lock":
                    requires.setdefault(name, set()).add(mark.lock)
                else:
                    satisfiers.setdefault(name, set()).add(mark.lock)

        if not requires:
            return findings

        for module in context.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    findings.extend(self._check_function(
                        module, node, requires, satisfiers, marked,
                    ))
        return findings

    def _check_function(
        self,
        module: ModuleSource,
        fn: ast.FunctionDef,
        requires: Dict[str, Set[str]],
        satisfiers: Dict[str, Set[str]],
        marked: Dict[str, List[_Marked]],
    ) -> List[Finding]:
        held: Set[str] = set()
        for deco in fn.decorator_list:
            hit = decorator_marker(deco, _MARKERS)
            if hit is not None and hit[1] is not None:
                # requires: caller provides it; acquires: taken internally.
                held.add(hit[1])

        findings: List[Finding] = []
        wildcard = False
        for call in _calls_in_order(fn):
            tail = _call_tail(call)
            if tail is None:
                continue
            if tail == "FileLock":
                wildcard = True
            needed = requires.get(tail)
            if needed:
                for lock in sorted(needed):
                    if lock in held or wildcard:
                        continue
                    findings.append(self.finding(
                        "RPL401",
                        f"call to {tail!r} requires lock {lock!r}, but "
                        f"{fn.name!r} neither holds it (no "
                        f"@requires_lock/@acquires_lock marker) nor "
                        "acquires it earlier in the function",
                        module, call,
                    ))
            for lock in satisfiers.get(tail, ()):
                held.add(lock)
        return findings


def _calls_in_order(fn: ast.FunctionDef) -> List[ast.Call]:
    """Call nodes in ``fn``, in source order, excluding nested defs.

    Nested functions are separate lexical scopes — a lock acquired in the
    enclosing body is *not* assumed held inside a nested def (it may run
    later, e.g. as a callback), and they are checked independently.
    """
    calls: List[ast.Call] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Call):
                calls.append(child)
            visit(child)

    for stmt in fn.body:
        if isinstance(stmt, ast.Call):
            calls.append(stmt)
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit(stmt)
    calls.sort(key=lambda c: (c.lineno, c.col_offset))
    return calls


def _call_tail(call: ast.Call) -> Optional[str]:
    name = dotted_name(call.func)
    if name is None:
        return None
    return name.rsplit(".", 1)[-1]
