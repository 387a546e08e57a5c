"""Benchmark assembly: cores + flows -> layered, floorplanned Benchmark.

:func:`build_benchmark` performs the steps the paper takes as given inputs:
assign cores to layers, floorplan each 3-D layer, and floorplan the
corresponding 2-D (single-die) implementation with the same area/wirelength
objectives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.bench.floorplans import floorplan_2d, floorplan_3d
from repro.bench.layer_assignment import assign_layers
from repro.graphs.comm_graph import build_comm_graph
from repro.spec.comm_spec import CommSpec, TrafficFlow
from repro.spec.core_spec import Core, CoreSpec
from repro.spec.validate import validate_specs


@dataclass(frozen=True)
class Benchmark:
    """A fully-prepared benchmark: specs for both the 3-D and 2-D flows."""

    name: str
    description: str
    core_spec_3d: CoreSpec
    core_spec_2d: CoreSpec
    comm_spec: CommSpec
    num_layers: int

    @property
    def num_cores(self) -> int:
        return len(self.core_spec_3d)

    @property
    def num_flows(self) -> int:
        return len(self.comm_spec)


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
    graph_3d = build_comm_graph(layered, comm_spec)

    core_spec_3d = floorplan_3d(
        layered, graph_3d, seed=seed, moves=floorplan_moves
    )
    core_spec_2d = floorplan_2d(
        base_spec, graph, seed=seed, moves=floorplan_moves
    )

    validate_specs(core_spec_3d, comm_spec)
    validate_specs(core_spec_2d, comm_spec)
    return Benchmark(
        name=name,
        description=description,
        core_spec_3d=core_spec_3d,
        core_spec_2d=core_spec_2d,
        comm_spec=comm_spec,
        num_layers=num_layers,
    )
