"""Checker: all nondeterminism flows through ``repro.rng.make_rng``.

The warm/cold bit-identity guarantee (stage cache, campaign resume,
frozen references) holds only if every random draw is derived from the
config-fingerprinted seed path. A stray ``random.random()`` or a
seedless ``numpy.random.default_rng()`` makes results depend on process
history; a ``time.time()`` or ``datetime.now()`` in a fingerprinted
value leaks wall-clock into content hashes. This checker bans those at
the import/call level, tree-wide:

* the ``random`` module may only be imported by ``repro/rng.py`` (the
  one place allowed to build generators — everything else asks
  :func:`~repro.rng.make_rng` for one);
* ``numpy.random`` global-state draws (``np.random.rand``,
  ``np.random.seed`` …) are banned everywhere — they mutate an ambient
  generator no fingerprint covers;
* constructing numpy generators (``default_rng``, ``RandomState``)
  outside ``repro/rng.py`` is banned even *with* a seed, so seed
  derivation stays in one audited module;
* wall-clock / entropy reads (``time.time``, ``datetime.now``,
  ``os.urandom``) are banned; ``time.perf_counter`` and
  ``time.monotonic`` stay legal because timing *metadata* never enters
  a fingerprint. The store's record-header clock is the one sanctioned
  ``time.time`` user, carried as ``# repro: noqa[RPL202]``.

The scope is deliberately the whole of ``src/repro`` rather than a
computed "fingerprinted call graph": the wider invariant is barely more
restrictive in practice and immune to call-graph blind spots.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.analysis.framework import (
    Checker,
    Finding,
    LintContext,
    ModuleSource,
    dotted_name,
    register_checker,
)

#: The one module allowed to import ``random`` and construct generators.
_RNG_MODULE_SUFFIX = "repro/rng.py"

#: ``numpy.random`` attributes that touch the ambient global generator.
_NUMPY_GLOBAL_FNS = frozenset({
    "seed", "rand", "randn", "random", "random_sample", "ranf", "sample",
    "randint", "random_integers", "choice", "shuffle", "permutation",
    "normal", "uniform", "poisson", "exponential", "binomial", "geometric",
    "standard_normal", "bytes", "get_state", "set_state",
})

#: ``numpy.random`` generator constructors (banned outside repro/rng.py).
_NUMPY_CONSTRUCTORS = frozenset({
    "default_rng", "RandomState", "Generator", "PCG64", "PCG64DXSM",
    "MT19937", "Philox", "SFC64", "SeedSequence",
})

#: Wall-clock / entropy calls, by canonical dotted name.
_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom",
})


def _is_rng_module(module: ModuleSource) -> bool:
    return module.relpath.endswith(_RNG_MODULE_SUFFIX) \
        or module.relpath == "rng.py"


@register_checker
class DeterminismChecker(Checker):
    """Prove randomness and wall-clock stay out of fingerprinted values."""

    name = "determinism"
    codes = {
        "RPL201": "the random module imported outside repro/rng.py",
        "RPL202": "wall-clock or entropy read (time.time, datetime.now, "
                  "os.urandom) in fingerprinted code",
        "RPL203": "numpy.random global-state draw (ambient generator, "
                  "never fingerprinted)",
        "RPL204": "RNG constructed outside repro.rng.make_rng",
    }

    def check(self, context: LintContext) -> List[Finding]:
        findings: List[Finding] = []
        for module in context.modules:
            if _is_rng_module(module):
                continue
            findings.extend(self._check_module(module))
        return findings

    def _check_module(self, module: ModuleSource) -> List[Finding]:
        findings: List[Finding] = []
        #: local name -> canonical dotted path it is bound to.
        aliases: Dict[str, str] = {}

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".", 1)[0]
                    if alias.name == "random" or alias.name.startswith("random."):
                        findings.append(self.finding(
                            "RPL201",
                            f"import of {alias.name!r}: only repro/rng.py "
                            "may build stdlib generators — take an rng from "
                            "make_rng instead",
                            module, node,
                        ))
                    target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    aliases[bound] = target
            elif isinstance(node, ast.ImportFrom):
                if node.module is None:
                    continue
                if node.module == "random" or node.module.startswith("random."):
                    findings.append(self.finding(
                        "RPL201",
                        f"import from {node.module!r}: only repro/rng.py "
                        "may build stdlib generators — take an rng from "
                        "make_rng instead",
                        module, node,
                    ))
                for alias in node.names:
                    bound = alias.asname or alias.name
                    aliases[bound] = f"{node.module}.{alias.name}"

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = self._canonical(node.func, aliases)
            if canonical is None:
                continue
            finding = self._classify_call(canonical, module, node)
            if finding is not None:
                findings.append(finding)
        return findings

    @staticmethod
    def _canonical(func: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
        """The call target as a canonical dotted path (aliases resolved)."""
        name = dotted_name(func)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        resolved = aliases.get(head, head)
        return f"{resolved}.{rest}" if rest else resolved

    def _classify_call(
        self, canonical: str, module: ModuleSource, node: ast.Call
    ) -> Optional[Finding]:
        if canonical in _CLOCK_CALLS:
            return self.finding(
                "RPL202",
                f"{canonical}() reads the wall clock / OS entropy — a "
                "fingerprinted value derived from it breaks warm/cold "
                "bit-identity (use time.perf_counter for timing metadata)",
                module, node,
            )
        if canonical.startswith("numpy.random."):
            attr = canonical.rsplit(".", 1)[-1]
            if attr in _NUMPY_GLOBAL_FNS:
                return self.finding(
                    "RPL203",
                    f"{canonical}() draws from numpy's ambient global "
                    "generator, which no fingerprint covers — use a "
                    "generator from make_rng",
                    module, node,
                )
            if attr in _NUMPY_CONSTRUCTORS:
                return self.finding(
                    "RPL204",
                    f"{canonical}() constructs an RNG outside "
                    "repro.rng.make_rng — seed derivation must stay in "
                    "the one audited module",
                    module, node,
                )
        if canonical in ("random.Random", "random.SystemRandom"):
            return self.finding(
                "RPL204",
                f"{canonical}() constructs an RNG outside "
                "repro.rng.make_rng — seed derivation must stay in the "
                "one audited module",
                module, node,
            )
        return None
