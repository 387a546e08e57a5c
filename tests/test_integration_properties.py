"""Property-based integration: random designs through the whole flow.

Hypothesis generates small random SoCs (core counts, layer assignments,
traffic patterns); every design point the flow produces must pass the
independent design-rule verifier of :mod:`repro.core.verification` — route
completeness, deadlock freedom, capacity, TSV and switch-size constraints,
latency, floorplan legality, TSV macros. Generated SoCs the size of the
paper's benchmarks (26-40 cores) go through the same check.

The same generated SoCs, in Phase 1 and in Phase 2, must give the same
points serially, on two workers, from a warm result store and from a warm
stage cache (``make fuzz`` raises the example budget to 500).
"""

import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.synthetic import synthetic_benchmark
from repro.core import phase1, phase2
from repro.core.config import SynthesisConfig
from repro.core.pipeline import FlowContext, run_synthesis
from repro.core.synthesis import synthesize
from repro.core.verification import verify_design_point
from repro.engine.executor import run_tasks
from repro.engine.store import ResultStore
from repro.engine.tasks import SynthesisTask
from repro.graphs.partition import kway_min_cut
from repro.models.library import default_library
from repro.noc.export import design_point_to_dict
from repro.spec.comm_spec import CommSpec, MessageType, TrafficFlow
from repro.spec.core_spec import Core, CoreSpec

from tests.conftest import grid_core_spec


@st.composite
def random_design(draw):
    n = draw(st.integers(min_value=4, max_value=8))
    num_layers = draw(st.integers(min_value=1, max_value=3))
    if num_layers > n:
        num_layers = n
    core_spec = grid_core_spec(n, num_layers)

    n_flows = draw(st.integers(min_value=2, max_value=8))
    pairs = set()
    flows = []
    for _ in range(n_flows):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 1))
        if src == dst or (src, dst) in pairs:
            continue
        pairs.add((src, dst))
        flows.append(TrafficFlow(
            src=f"C{src}", dst=f"C{dst}",
            bandwidth=draw(st.sampled_from([50, 150, 300, 600])),
            latency=draw(st.sampled_from([6, 10, 16])),
            message_type=draw(st.sampled_from(list(MessageType))),
        ))
    if not flows:
        flows.append(TrafficFlow("C0", "C1", 100, 10))
    return core_spec, CommSpec(flows=flows)


class TestRandomDesigns:
    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(design=random_design())
    def test_every_point_verifies(self, design):
        core_spec, comm_spec = design
        config = SynthesisConfig(max_ill=8, switch_count_range=(1, 4))
        ctx = FlowContext.build(core_spec, comm_spec, config=config)
        result = run_synthesis(ctx)
        library = default_library()
        for point in result.points:
            report = verify_design_point(point, ctx.graph, library)
            assert report.ok, report.summary()

    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(design=random_design(), max_ill=st.sampled_from([0, 1, 3]))
    def test_tight_ill_never_violated(self, design, max_ill):
        """However tight the TSV constraint, accepted points respect it."""
        core_spec, comm_spec = design
        config = SynthesisConfig(max_ill=max_ill, switch_count_range=(1, 4))
        result = synthesize(core_spec, comm_spec, config=config)
        for point in result.points:
            assert point.metrics.max_ill_used <= max_ill


def _docs(result):
    return [design_point_to_dict(p) for p in result.points]


class TestExecutionPathIdentity:
    """One result whatever path computes it: jobs=1, jobs=2, a warm result
    store, and a warm stage cache with only the metrics objective changed,
    which must serve every partition from the cache."""

    # Each example starts process pools, so the 'fuzz' profile's budget is
    # capped at 500 examples here (5000 took about 55 minutes on 2 vCPUs).
    @settings(
        max_examples=min(settings.default.max_examples, 500),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(design=random_design())
    def test_every_path_gives_the_same_points(self, design):
        core_spec, comm_spec = design
        for phase in ("phase1", "phase2"):
            config = SynthesisConfig(
                max_ill=8, switch_count_range=(1, 4), phase=phase
            )
            ctx = FlowContext.build(core_spec, comm_spec, config=config)
            serial = _docs(run_synthesis(ctx, jobs=1))
            assert _docs(run_synthesis(ctx, jobs=2)) == serial
            with tempfile.TemporaryDirectory() as root:
                store = ResultStore(root)

                def run(cfg):
                    task = SynthesisTask(
                        key=phase, core_spec=core_spec, comm_spec=comm_spec,
                        config=cfg, stage_cache_dir=root,
                        stage_cache_salt=store.salt,
                    )
                    return run_tasks([task], store=store)[0]

                cold, warm = run(config), run(config)
                assert not cold.cached and warm.cached
                assert _docs(cold.result) == _docs(warm.result) == serial
                calls = []

                def counting(*args):
                    calls.append(args)
                    return kway_min_cut(*args)

                with pytest.MonkeyPatch.context() as patch:
                    for module in (phase1, phase2):
                        patch.setattr(module, "kway_min_cut", counting)
                    flipped = run(config.with_(objective="latency"))
                assert not flipped.cached
                assert _docs(flipped.result) == serial
                assert flipped.stage_cache["partition"]["misses"] == 0
                assert calls == []


class TestRegistryScaleDesigns:
    @pytest.mark.parametrize("num_cores, pattern, num_layers", [
        (26, "distributed", 2),
        (32, "pipeline", 3),
        (36, "bottleneck", 2),
        (40, "random", 3),
    ])
    def test_every_point_verifies(self, num_cores, pattern, num_layers):
        bench = synthetic_benchmark(
            num_cores, pattern, num_layers, seed=1, with_responses=True,
        )
        config = SynthesisConfig(max_ill=25, switch_count_range=(3, 8))
        ctx = FlowContext.build(bench.core_spec_3d, bench.comm_spec,
                                config=config)
        result = run_synthesis(ctx)
        assert result.points
        library = default_library()
        for point in result.points:
            report = verify_design_point(point, ctx.graph, library)
            assert report.ok, report.summary()
