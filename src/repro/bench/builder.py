"""Benchmark assembly: cores + flows -> layered, floorplanned Benchmark.

:func:`build_benchmark` performs the steps the paper takes as given inputs:
assign cores to layers and floorplan each 3-D layer. The corresponding 2-D
(single-die) implementation, floorplanned with the same area/wirelength
objectives, is built on first use by :attr:`Benchmark.core_spec_2d`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

from repro.bench.floorplans import floorplan_2d, floorplan_3d
from repro.bench.layer_assignment import assign_layers
from repro.core.config import SynthesisConfig
from repro.errors import SpecError
from repro.graphs.comm_graph import build_comm_graph
from repro.spec.comm_spec import CommSpec, TrafficFlow
from repro.spec.core_spec import Core, CoreSpec
from repro.spec.validate import validate_specs


@dataclass(frozen=True)
class Benchmark:
    """A fully-prepared benchmark: the 3-D specs, and the 2-D variant on
    request (annealed with the build's ``seed`` and ``floorplan_moves``)."""

    name: str
    description: str
    core_spec_3d: CoreSpec
    comm_spec: CommSpec
    num_layers: int
    seed: int
    floorplan_moves: int

    @property
    def num_cores(self) -> int:
        return len(self.core_spec_3d)

    @property
    def num_flows(self) -> int:
        return len(self.comm_spec)

    @cached_property
    def core_spec_2d(self) -> CoreSpec:
        """The same cores floorplanned on a single die (annealed once)."""
        graph = build_comm_graph(self.core_spec_3d, self.comm_spec)
        core_spec = floorplan_2d(
            self.core_spec_3d, graph,
            seed=self.seed, moves=self.floorplan_moves,
        )
        validate_specs(core_spec, self.comm_spec)
        return core_spec

    def variant(
        self, dims: str, config: SynthesisConfig,
    ) -> Tuple[CoreSpec, SynthesisConfig]:
        """The core spec and configuration that synthesize one variant.

        ``"3d"`` is the stacked design under ``config`` unchanged. ``"2d"``
        is the comparison flow of [16]: the single-die floorplan under
        Phase 1 only, since no link can cross a layer there (the TSV
        constraints are inert and Phase 2's layer-by-layer restriction is
        meaningless). Any other ``dims`` raises :class:`SpecError`.
        """
        if dims == "3d":
            return self.core_spec_3d, config
        if dims == "2d":
            return self.core_spec_2d, config.with_(phase="phase1")
        raise SpecError(f"dims must be '2d' or '3d', got {dims!r}")


def build_benchmark(
    name: str,
    cores: Sequence[Tuple[str, float, float]],
    flows: Sequence[TrafficFlow],
    num_layers: int,
    *,
    description: str = "",
    seed: int = 0,
    layer_strategy: str = "stack",
    floorplan_moves: int = 4000,
) -> Benchmark:
    """Assemble a benchmark from core dimensions and traffic flows.

    Args:
        cores: ``(name, width_mm, height_mm)`` triples.
        flows: The communication specification's flows.
        num_layers: 3-D layer count of the stacked variant.
        seed: Determinism seed for layer assignment and floorplanning.
        layer_strategy: See :func:`repro.bench.layer_assignment.assign_layers`;
            the default "stack" mirrors the paper's benchmarks, where
            "highly communicating cores are placed one above the other"
            (Example 1).
        floorplan_moves: Annealing budget per floorplan.
    """
    base_cores: List[Core] = [
        Core(name=n, width=w, height=h) for (n, w, h) in cores
    ]
    base_spec = CoreSpec(cores=base_cores)
    comm_spec = CommSpec(flows=list(flows))

    graph = build_comm_graph(base_spec, comm_spec)
    layers = assign_layers(
        graph, num_layers, strategy=layer_strategy, seed=seed,
        areas=[c.area for c in base_cores],
    )
    layered = base_spec.with_layers(layers)
    core_spec_3d = floorplan_3d(
        layered, build_comm_graph(layered, comm_spec),
        seed=seed, moves=floorplan_moves,
    )
    validate_specs(core_spec_3d, comm_spec)
    return Benchmark(
        name=name,
        description=description,
        core_spec_3d=core_spec_3d,
        comm_spec=comm_spec,
        num_layers=num_layers,
        seed=seed,
        floorplan_moves=floorplan_moves,
    )
