"""Architectural parameter grids: the design space of the Fig. 3 outer loop.

"The NoC architectural parameters, such as frequency of operation, are
varied and the topology design process is repeated for each architectural
point" (Sec. IV). A :class:`ParameterGrid` names the swept dimensions —
frequency, the PG weight α of Def. 3, link width, and the switch-count
range — and expands to the cross product of :class:`GridPoint`\\ s; empty
dimensions inherit the base configuration's value.

Validation happens *up front* for every value of every dimension, so an
invalid parameter aborts before any synthesis point has been paid for —
not halfway through a sweep. The rules are the configuration's own
(:func:`~repro.core.config.field_problem`); the grid keeps none.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.core.config import SynthesisConfig, field_problem
from repro.engine.tasks import SynthesisTask
from repro.errors import SynthesisError
from repro.models.library import NocLibrary
from repro.spec.comm_spec import CommSpec
from repro.spec.core_spec import CoreSpec
from repro.units import link_capacity_mbps

#: The :class:`~repro.core.config.SynthesisConfig` field each grid
#: dimension sweeps.
DIMENSIONS = {
    "frequencies_mhz": "frequency_mhz",
    "alphas": "alpha",
    "link_widths_bits": "link_width_bits",
    "switch_count_ranges": "switch_count_range",
}

#: The canonical form an accepted grid value lands in.
_CANONICAL = {
    "frequency_mhz": float,
    "alpha": float,
    "link_width_bits": operator.index,
    "switch_count_range": tuple,
}


@dataclass(frozen=True)
class GridPoint:
    """One point of the architectural design space.

    ``None`` fields keep the base configuration's value, so a pure
    frequency sweep produces points like ``GridPoint(frequency_mhz=400.0)``.
    """

    frequency_mhz: Optional[float] = None
    alpha: Optional[float] = None
    link_width_bits: Optional[int] = None
    switch_count_range: Optional[Tuple[int, int]] = None

    def apply(self, base: SynthesisConfig) -> SynthesisConfig:
        """The base configuration with this point's values applied.

        The configuration judges each value as given (a bool or a 32.5-bit
        width is refused, not cast); an accepted value then lands in its
        canonical form, so ``400`` and ``400.0`` share a store address.
        """
        changes = {
            name: getattr(self, name) for name in _CANONICAL
            if getattr(self, name) is not None
        }
        if not changes:
            return base
        base.with_(**changes)
        return base.with_(**{
            name: _CANONICAL[name](value) for name, value in changes.items()
        })

    def label(self) -> str:
        parts = []
        if self.frequency_mhz is not None:
            parts.append(f"f={self.frequency_mhz:g}MHz")
        if self.alpha is not None:
            parts.append(f"alpha={self.alpha:g}")
        if self.link_width_bits is not None:
            parts.append(f"w={self.link_width_bits}b")
        if self.switch_count_range is not None:
            lo, hi = self.switch_count_range
            parts.append(f"sw={lo}:{hi}")
        return " ".join(parts) if parts else "base"


@dataclass(frozen=True)
class ParameterGrid:
    """Cross product of swept architectural parameters.

    Empty dimensions are not swept (the base config value is used), so the
    classic frequency sweep is ``ParameterGrid(frequencies_mhz=(200, 400))``
    and a frequency × α exploration adds ``alphas=(0.3, 0.7)``.
    """

    frequencies_mhz: Tuple[float, ...] = ()
    alphas: Tuple[float, ...] = ()
    link_widths_bits: Tuple[int, ...] = ()
    switch_count_ranges: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        # Normalise sequences to tuples so grids hash and pickle cleanly; a
        # bare value (``frequencies_mhz=400``) or a string is refused.
        for dim in DIMENSIONS:
            values = getattr(self, dim)
            if isinstance(values, (str, bytes)) or not isinstance(
                values, Iterable
            ):
                raise SynthesisError(
                    f"invalid sweep grid: {dim} must be a sequence of "
                    f"values, got {values!r}"
                )
            object.__setattr__(self, dim, tuple(values))
        object.__setattr__(self, "switch_count_ranges", tuple(
            tuple(r) if isinstance(r, (list, tuple)) else r
            for r in self.switch_count_ranges
        ))

    @property
    def size(self) -> int:
        n = 1
        for dim in DIMENSIONS:
            n *= max(1, len(getattr(self, dim)))
        return n

    def validate(self) -> None:
        """Check every value of every dimension before any synthesis runs:
        each value alone, by :func:`~repro.core.config.field_problem`, and
        every problem in one :class:`~repro.errors.SynthesisError`."""
        bad = [
            problem
            for dim, name in DIMENSIONS.items()
            for value in getattr(self, dim)
            for problem in (field_problem(name, value),)
            if problem is not None
        ]
        if bad:
            raise SynthesisError("invalid sweep grid: " + "; ".join(bad))

    def points(self) -> List[GridPoint]:
        """All grid points, in deterministic row-major order."""
        self.validate()
        return [
            GridPoint(**dict(zip(DIMENSIONS.values(), values)))
            for values in itertools.product(*(
                getattr(self, dim) or (None,) for dim in DIMENSIONS
            ))
        ]


def build_tasks(
    core_spec: CoreSpec,
    comm_spec: CommSpec,
    grid: ParameterGrid,
    base_config: Optional[SynthesisConfig] = None,
    library: Optional[NocLibrary] = None,
    *,
    stage_cache_dir: Optional[str] = None,
    stage_cache_salt: Optional[str] = None,
) -> List[SynthesisTask]:
    """Expand a grid into engine tasks for one design.

    A point whose link capacity cannot carry the largest single flow is
    marked ``skip`` and merges as an empty result instead of burning a
    worker on a guaranteed-unroutable design.

    ``stage_cache_dir``/``stage_cache_salt`` arm per-stage memoization
    (:mod:`repro.engine.stagecache`) in the workers: stages whose inputs
    repeat across neighbouring grid points are served from disk. Results
    stay bit-identical; only wall clock changes.
    """
    base = base_config if base_config is not None else SynthesisConfig()
    tasks: List[SynthesisTask] = []
    for point in grid.points():
        config = point.apply(base)
        capacity = link_capacity_mbps(
            config.link_width_bits, config.frequency_mhz
        )
        skip = comm_spec.max_bandwidth > capacity
        reason = (
            f"largest flow ({comm_spec.max_bandwidth} MB/s) exceeds "
            f"link capacity ({capacity:.1f} MB/s)"
        ) if skip else ""
        tasks.append(
            SynthesisTask(
                key=point,
                core_spec=core_spec,
                comm_spec=comm_spec,
                config=config,
                library=library,
                skip=skip,
                skip_reason=reason,
                stage_cache_dir=stage_cache_dir,
                stage_cache_salt=stage_cache_salt,
            )
        )
    return tasks
