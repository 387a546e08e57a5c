"""Checker: a stage's declared inputs must equal what ``run()`` touches.

The stage cache (:mod:`repro.engine.stagecache`) fingerprints a stage by
its **declared** ``context_inputs`` / ``config_inputs`` / ``state_inputs``
— not by what the code actually reads. An undeclared ``ctx.`` read is the
worst kind of bug this repo can have: nothing crashes, the cache simply
keeps serving records keyed on too few inputs, and warm runs silently
diverge from cold ones, breaking the bit-identity every benchmark gates
on. Dead declarations are the cheap cousin — they only cost hit rate —
but they rot the documentation value of the declaration, so both
directions are findings.

The analysis is a per-stage abstract walk of ``run()`` **plus every
module-local helper it calls** (module-level functions and ``self.``
methods), with the context/config/state objects tracked through call
arguments: passing ``ctx`` to ``self._insert_noc(ctx, ...)`` analyses the
helper with its parameter aliased to the context. Accesses are classified
as

* ``ctx.<attr>``                → context read (``ctx.config`` special-cased),
* ``ctx.config.<attr>``         → config read,
* bare ``ctx.config`` escaping (stored, passed to a non-local call) →
  whole-config use, always a finding: a field-by-field declaration cannot
  be verified against an escape, so the escape must be suppressed with a
  reason explaining what closes the field set,
* ``state.<attr>`` loads/stores → state reads / writes.

Out-of-module calls are *not* followed: the declared tuples are exactly
the module-boundary contract, which is also what keeps this checker fast
and its findings explainable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.framework import (
    Checker,
    Finding,
    LintContext,
    ModuleSource,
    register_checker,
)

#: Declared-input attribute names on a Stage class body.
_DECLARATIONS = (
    "context_inputs", "config_inputs", "state_inputs", "state_outputs",
)

#: How deep helper-call chains are followed (defensive; real chains are 2).
_MAX_DEPTH = 8


@dataclass
class _Access:
    """One classified attribute access inside a stage's reachable code."""

    kind: str       # "context" | "config" | "config-whole" | "state-read"
                    # | "state-write"
    attr: str       # "" for config-whole
    node: ast.AST   # anchor for the finding


@dataclass
class _StageDecl:
    """A stage class's declarations, resolved from the AST."""

    class_name: str
    stage_name: str
    node: ast.ClassDef
    context_inputs: Optional[Tuple[str, ...]] = None
    config_inputs: Optional[Tuple[str, ...]] = None
    state_inputs: Optional[Tuple[str, ...]] = None
    state_outputs: Optional[Tuple[str, ...]] = None
    decl_lines: Dict[str, int] = field(default_factory=dict)
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)


@register_checker
class StageInputsChecker(Checker):
    """Prove stage declarations complete (no stale-cache reads) and live."""

    name = "stage-inputs"
    codes = {
        "RPL101": "undeclared FlowContext read",
        "RPL102": "undeclared SynthesisConfig read",
        "RPL103": "undeclared CandidateState read",
        "RPL104": "undeclared CandidateState write",
        "RPL105": "dead declaration: declared input/output never touched",
        "RPL106": "whole config object escapes a stage",
    }

    def check(self, context: LintContext) -> List[Finding]:
        findings: List[Finding] = []
        for module in context.modules:
            functions = {
                node.name: node
                for node in module.tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            constants = _module_constants(module.tree)
            for node in module.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                decl = _parse_stage_class(node, constants)
                if decl is None:
                    continue
                findings.extend(
                    self._check_stage(module, decl, functions)
                )
        return findings

    # -- per-stage analysis -------------------------------------------------

    def _check_stage(
        self,
        module: ModuleSource,
        decl: _StageDecl,
        functions: Dict[str, ast.FunctionDef],
    ) -> List[Finding]:
        run = decl.methods.get("run")
        if run is None:
            return []
        accesses: List[_Access] = []
        visited: Set[Tuple[str, str, str, str]] = set()
        _walk_function(
            run,
            ctx_names={_param_name(run, 1)},
            config_names=set(),
            state_names={_param_name(run, 2)},
            decl=decl,
            functions=functions,
            accesses=accesses,
            visited=visited,
            depth=0,
        )
        return self._diff(module, decl, accesses)

    def _diff(
        self, module: ModuleSource, decl: _StageDecl, accesses: List[_Access]
    ) -> List[Finding]:
        stage = decl.stage_name
        findings: List[Finding] = []
        seen = {
            "context": set(), "config": set(),
            "state-read": set(), "state-write": set(),
        }
        config_whole = False
        ctx_declared = decl.context_inputs
        cfg_declared = decl.config_inputs
        st_in_declared = decl.state_inputs
        st_out_declared = decl.state_outputs

        #: State attrs already written at the point of a read: a
        #: read-after-own-write (e.g. FloorplanStage computing
        #: ``state.final_centers`` then passing it on) is an intermediate,
        #: not a cache input. Reads *before* the first write still count.
        written_so_far: Set[str] = set()

        for access in accesses:
            if access.kind == "config-whole":
                config_whole = True
                findings.append(self.finding(
                    "RPL106",
                    f"stage {stage!r}: the whole config object escapes "
                    "here, but config_inputs can only declare fields — "
                    "suppress with the reason that closes the field set",
                    module, access.node,
                ))
                continue
            if access.kind == "state-read" and access.attr in written_so_far:
                continue
            if access.kind == "state-write":
                written_so_far.add(access.attr)
            seen[access.kind].add(access.attr)
            if access.kind == "context":
                if ctx_declared is not None and access.attr not in ctx_declared:
                    findings.append(self.finding(
                        "RPL101",
                        f"stage {stage!r} reads ctx.{access.attr} but "
                        f"context_inputs does not declare {access.attr!r} "
                        "— the stage cache would serve stale results",
                        module, access.node,
                    ))
            elif access.kind == "config":
                if cfg_declared is not None and access.attr not in cfg_declared:
                    findings.append(self.finding(
                        "RPL102",
                        f"stage {stage!r} reads config.{access.attr} but "
                        f"config_inputs does not declare {access.attr!r} "
                        "— the stage cache would serve stale results",
                        module, access.node,
                    ))
            elif access.kind == "state-read":
                if st_in_declared is not None and access.attr not in st_in_declared:
                    findings.append(self.finding(
                        "RPL103",
                        f"stage {stage!r} reads state.{access.attr} but "
                        f"state_inputs does not declare {access.attr!r} "
                        "— the stage cache would serve stale results",
                        module, access.node,
                    ))
            elif access.kind == "state-write":
                if st_out_declared is not None and access.attr not in st_out_declared:
                    findings.append(self.finding(
                        "RPL104",
                        f"stage {stage!r} writes state.{access.attr} but "
                        f"state_outputs does not declare {access.attr!r} "
                        "— a cache hit would not replay it",
                        module, access.node,
                    ))

        # Dead declarations: the reverse direction. Only costs hit rate,
        # but undeclares itself the moment someone trims the code.
        def dead(names, touched, which):
            for attr in names or ():
                if attr not in touched:
                    findings.append(self.finding(
                        "RPL105",
                        f"stage {stage!r} declares {attr!r} in {which} but "
                        "never touches it — dead declaration",
                        module, line=decl.decl_lines.get(which, decl.node.lineno),
                    ))

        dead(ctx_declared, seen["context"], "context_inputs")
        if not config_whole:
            dead(cfg_declared, seen["config"], "config_inputs")
        dead(st_in_declared, seen["state-read"], "state_inputs")
        dead(
            st_out_declared,
            seen["state-write"] | seen["state-read"],
            "state_outputs",
        )
        return findings


# -- declaration parsing ----------------------------------------------------

def _module_constants(tree: ast.Module) -> Dict[str, Tuple[str, ...]]:
    """Module-level ``NAME = ("a", "b")`` string-tuple constants."""
    out: Dict[str, Tuple[str, ...]] = {}
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        resolved = _string_tuple(value)
        if resolved is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out[target.id] = resolved
    return out


def _string_tuple(node: ast.expr) -> Optional[Tuple[str, ...]]:
    if isinstance(node, (ast.Tuple, ast.List)):
        items = []
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                items.append(elt.value)
            else:
                return None
        return tuple(items)
    return None


def _parse_stage_class(
    node: ast.ClassDef, constants: Dict[str, Tuple[str, ...]]
) -> Optional[_StageDecl]:
    """A :class:`_StageDecl` when ``node`` looks like a Stage subclass."""
    if not any(
        (isinstance(base, ast.Name) and base.id.endswith("Stage"))
        or (isinstance(base, ast.Attribute) and base.attr.endswith("Stage"))
        for base in node.bases
    ):
        return None
    decl = _StageDecl(class_name=node.name, stage_name=node.name, node=node)
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decl.methods[item.name] = item
            continue
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(item, ast.Assign):
            targets, value = item.targets, item.value
        elif isinstance(item, ast.AnnAssign) and item.value is not None:
            targets, value = [item.target], item.value
        if value is None:
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id == "name" and isinstance(value, ast.Constant) \
                    and isinstance(value.value, str):
                decl.stage_name = value.value
            elif target.id in _DECLARATIONS:
                decl.decl_lines[target.id] = item.lineno
                setattr(decl, target.id, _resolve_decl(value, constants))
    return decl


def _resolve_decl(
    value: ast.expr, constants: Dict[str, Tuple[str, ...]]
) -> Optional[Tuple[str, ...]]:
    """A declaration value: tuple literal or a module constant.

    ``None`` means unresolvable (a computed expression) — the checker
    then skips that aspect rather than guessing.
    """
    direct = _string_tuple(value)
    if direct is not None:
        return direct
    if isinstance(value, ast.Name):
        return constants.get(value.id)
    return None


# -- the abstract walk ------------------------------------------------------

def _param_name(fn: ast.FunctionDef, index: int) -> str:
    """Positional parameter name (``""`` when absent)."""
    args = fn.args.args
    return args[index].arg if index < len(args) else ""


def _walk_function(
    fn: ast.FunctionDef,
    *,
    ctx_names: Set[str],
    config_names: Set[str],
    state_names: Set[str],
    decl: _StageDecl,
    functions: Dict[str, ast.FunctionDef],
    accesses: List[_Access],
    visited: Set[Tuple[str, str, str, str]],
    depth: int,
) -> None:
    """Collect classified accesses in ``fn``, recursing into local helpers.

    ``visited`` keys on (function name, alias signature) so a helper is
    analysed once per distinct aliasing, and cycles terminate.
    """
    ctx_names = {n for n in ctx_names if n}
    config_names = {n for n in config_names if n}
    state_names = {n for n in state_names if n}
    key = (
        fn.name,
        ",".join(sorted(ctx_names)),
        ",".join(sorted(config_names)),
        ",".join(sorted(state_names)),
    )
    if key in visited or depth > _MAX_DEPTH:
        return
    visited.add(key)

    walker = _AccessWalker(ctx_names, config_names, state_names)
    for stmt in fn.body:
        walker.visit(stmt)

    # Replay events in evaluation order, descending into helpers at the
    # call site — so the read-after-own-write exemption in _diff sees
    # reads and writes in the order run() would actually perform them.
    for kind, payload in walker.events:
        if kind == "access":
            accesses.append(payload)
            continue
        call = payload
        target = _local_target(call, decl, functions)
        if target is None:
            continue
        sub_ctx, sub_config, sub_state = _map_aliases(
            call, target, ctx_names, config_names, state_names,
        )
        if not (sub_ctx or sub_config or sub_state):
            continue
        _walk_function(
            target,
            ctx_names=sub_ctx,
            config_names=sub_config,
            state_names=sub_state,
            decl=decl,
            functions=functions,
            accesses=accesses,
            visited=visited,
            depth=depth + 1,
        )


def _local_target(
    call: ast.Call,
    decl: _StageDecl,
    functions: Dict[str, ast.FunctionDef],
) -> Optional[ast.FunctionDef]:
    """The module-local function / own method a call resolves to, if any."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
            and func.value.id == "self":
        return decl.methods.get(func.attr)
    if isinstance(func, ast.Name):
        return functions.get(func.id)
    return None


def _map_aliases(
    call: ast.Call,
    target: ast.FunctionDef,
    ctx_names: Set[str],
    config_names: Set[str],
    state_names: Set[str],
) -> Tuple[Set[str], Set[str], Set[str]]:
    """Which of the callee's parameters alias ctx / config / state."""
    params = [a.arg for a in target.args.args]
    is_method = bool(params) and params[0] == "self"
    positional = params[1:] if is_method else params

    sub_ctx: Set[str] = set()
    sub_config: Set[str] = set()
    sub_state: Set[str] = set()

    def classify(expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            if expr.id in ctx_names:
                return "ctx"
            if expr.id in config_names:
                return "config"
            if expr.id in state_names:
                return "state"
        elif isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id in ctx_names and expr.attr == "config":
            return "config"
        return None

    for i, arg in enumerate(call.args):
        if i >= len(positional):
            break
        role = classify(arg)
        if role == "ctx":
            sub_ctx.add(positional[i])
        elif role == "config":
            sub_config.add(positional[i])
        elif role == "state":
            sub_state.add(positional[i])
    for kw in call.keywords:
        if kw.arg is None or kw.arg not in params:
            continue
        role = classify(kw.value)
        if role == "ctx":
            sub_ctx.add(kw.arg)
        elif role == "config":
            sub_config.add(kw.arg)
        elif role == "state":
            sub_state.add(kw.arg)
    return sub_ctx, sub_config, sub_state


class _AccessWalker(ast.NodeVisitor):
    """Classify ctx/config/state attribute accesses in one function body."""

    def __init__(
        self,
        ctx_names: Set[str],
        config_names: Set[str],
        state_names: Set[str],
    ) -> None:
        self.ctx_names = ctx_names
        self.config_names = config_names
        self.state_names = state_names
        #: ("access", _Access) and ("call", ast.Call) entries in
        #: evaluation order — argument accesses precede their call,
        #: assignment values precede their targets.
        self.events: List[Tuple[str, object]] = []
        #: Attribute nodes already consumed as the inner part of a longer
        #: chain (``ctx.config.x`` consumes the ``ctx.config`` node).
        self._consumed: Set[int] = set()

    def _access(self, access: "_Access") -> None:
        self.events.append(("access", access))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested defs are analysed only via explicit calls (alias mapping);
        # a blind descent would mis-bind their parameters.
        return

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            self.visit(target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
        self.visit(node.target)

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        self.events.append(("call", node))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if id(node) in self._consumed:
            self.generic_visit(node)
            return
        base = node.value
        if isinstance(base, ast.Name):
            if base.id in self.ctx_names:
                if node.attr == "config":
                    # A bare `ctx.config` (not further dereferenced here):
                    # the whole config object escapes.
                    self._access(_Access("config-whole", "", node))
                else:
                    self._access(_Access("context", node.attr, node))
            elif base.id in self.config_names:
                self._access(_Access("config", node.attr, node))
            elif base.id in self.state_names:
                kind = (
                    "state-write"
                    if isinstance(node.ctx, (ast.Store, ast.Del))
                    else "state-read"
                )
                self._access(_Access(kind, node.attr, node))
        elif isinstance(base, ast.Attribute) \
                and isinstance(base.value, ast.Name) \
                and base.value.id in self.ctx_names and base.attr == "config":
            # ctx.config.<attr>: a config field read; mark the inner
            # ctx.config node consumed so it is not double-counted as a
            # whole-config escape.
            self._consumed.add(id(base))
            self._access(_Access("config", node.attr, node))
        self.generic_visit(node)
