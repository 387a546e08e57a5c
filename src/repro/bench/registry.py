"""Benchmark registry: name -> cached Benchmark instance.

Benchmark construction runs layer assignment and one simulated-annealing
floorplan per 3-D layer (plus the single-die one on first use of
``core_spec_2d``), so instances are cached per (name, seed, moves).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Tuple

from repro.bench import suites
from repro.bench.builder import Benchmark
from repro.errors import SpecError

#: The six benchmarks of Table I / Figs. 17, 19, 20, 23.
TABLE1_BENCHMARKS = (
    "d36_4",
    "d36_6",
    "d36_8",
    "d35_bot",
    "d65_pipe",
    "d38_tvopd",
)

#: Each benchmark's generator, called with ``seed`` and ``floorplan_moves``.
_BUILDERS: Dict[str, Callable[..., Benchmark]] = {
    "d26_media": suites.d26_media,
    "d36_4": partial(suites.d36, 4),
    "d36_6": partial(suites.d36, 6),
    "d36_8": partial(suites.d36, 8),
    "d35_bot": suites.d35_bot,
    "d65_pipe": suites.d65_pipe,
    "d38_tvopd": suites.d38_tvopd,
}


def list_benchmarks() -> List[str]:
    """Names of every available benchmark."""
    return sorted(_BUILDERS)


#: Built benchmarks keyed by ``(name, seed, floorplan_moves)``.
_CACHE: Dict[Tuple, Benchmark] = {}


def get_benchmark(
    name: str, seed: int = 0, floorplan_moves: int = 4000,
) -> Benchmark:
    """Build (or fetch the cached) benchmark called ``name``."""
    cache_key = (name, seed, floorplan_moves)
    bench = _CACHE.get(cache_key)
    if bench is None:
        if name not in _BUILDERS:
            raise SpecError(
                f"unknown benchmark {name!r}; "
                f"available: {', '.join(list_benchmarks())}"
            )
        bench = _BUILDERS[name](seed=seed, floorplan_moves=floorplan_moves)
        _CACHE[cache_key] = bench
    return bench
