"""Benchmark registry: name -> cached Benchmark instance.

Benchmark construction runs layer assignment and four to five simulated-
annealing floorplans, so instances are cached per (name, seed).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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

_ALL = TABLE1_BENCHMARKS + ("d26_media",)


def list_benchmarks() -> List[str]:
    """Names of every available benchmark."""
    return sorted(_ALL)


#: Built benchmarks keyed by ``(name, seed, floorplan_moves)``.
_CACHE: Dict[Tuple, Benchmark] = {}


def get_benchmark(
    name: str, seed: int = 0, floorplan_moves: int = 4000,
) -> Benchmark:
    """Build (or fetch the cached) benchmark called ``name``."""
    cache_key = (name, seed, floorplan_moves)
    cached = _CACHE.get(cache_key)
    if cached is not None:
        return cached
    bench = _build_benchmark(name, seed, floorplan_moves)
    _CACHE[cache_key] = bench
    return bench


def _build_benchmark(name: str, seed: int, floorplan_moves: int) -> Benchmark:
    kwargs = dict(seed=seed, floorplan_moves=floorplan_moves)
    if name == "d26_media":
        return suites.d26_media(**kwargs)
    if name == "d36_4":
        return suites.d36(4, **kwargs)
    if name == "d36_6":
        return suites.d36(6, **kwargs)
    if name == "d36_8":
        return suites.d36(8, **kwargs)
    if name == "d35_bot":
        return suites.d35_bot(**kwargs)
    if name == "d65_pipe":
        return suites.d65_pipe(**kwargs)
    if name == "d38_tvopd":
        return suites.d38_tvopd(**kwargs)
    raise SpecError(
        f"unknown benchmark {name!r}; available: {', '.join(list_benchmarks())}"
    )
