"""SunFloor 3D reproduction — application-specific NoC topology synthesis
for 3-D systems on chips.

Reproduces: C. Seiculescu, S. Murali, L. Benini, G. De Micheli,
"SunFloor 3D: A Tool for Networks on Chip Topology Synthesis for 3-D Systems
on Chips", IEEE TCAD 29(12), 2010 (journal version of the DATE 2009 paper).

Quickstart::

    from repro import SynthesisConfig, synthesize
    from repro.bench import get_benchmark

    bench = get_benchmark("d26_media")
    result = synthesize(bench.core_spec_3d, bench.comm_spec,
                        config=SynthesisConfig(max_ill=25))
    print(result.best_power().summary())

A sweep over architectural parameters is
``run_tasks(build_tasks(core_spec, comm_spec, ParameterGrid(...)))``, or
:func:`sweep_frequencies` for the paper's frequency sweep. See README.md
for the tool overview and ``docs/pipeline.md`` / ``docs/engine.md`` for
the flow and the engine.
"""

from repro.core import (
    DesignPoint,
    FlowContext,
    Pipeline,
    Stage,
    StageTimings,
    SynthesisConfig,
    SynthesisResult,
    run_synthesis,
    synthesize,
    synthesize_mesh,
)
from repro.core.frequency_sweep import sweep_frequencies
from repro.core.verification import verify_design_point
from repro.engine import GridPoint, ParameterGrid, build_tasks, run_tasks
from repro.errors import (
    EngineError,
    FloorplanError,
    LPError,
    PathComputationError,
    ReproError,
    SpecError,
    SynthesisError,
)
from repro.models import NocLibrary, default_library
from repro.spec import CommSpec, Core, CoreSpec, MessageType, TrafficFlow

__version__ = "1.0.0"

__all__ = [
    "SynthesisConfig",
    "SynthesisResult",
    "DesignPoint",
    "FlowContext",
    "Pipeline",
    "Stage",
    "StageTimings",
    "run_synthesis",
    "synthesize",
    "synthesize_mesh",
    "sweep_frequencies",
    "verify_design_point",
    "GridPoint",
    "ParameterGrid",
    "build_tasks",
    "run_tasks",
    "EngineError",
    "NocLibrary",
    "default_library",
    "Core",
    "CoreSpec",
    "CommSpec",
    "TrafficFlow",
    "MessageType",
    "ReproError",
    "SpecError",
    "SynthesisError",
    "PathComputationError",
    "LPError",
    "FloorplanError",
    "__version__",
]
