PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Recorded line-coverage floor for src/repro/engine (the chaos suite
# drives the supervise/faults recovery paths). Raised from 76 with the
# analysis suite (stagecache fingerprints, locks, journal writer guards
# ride along with the linter's regression tests); raised from 77 with the
# batch-simulator suite (task batching, store-set addressing); raised
# from 78 to 88 when the old scaling-benchmark module, which no unit test
# ran, left the package (measured 89.2%).
ENGINE_COV_FLOOR ?= 88

.PHONY: help test test-fast lint check coverage chaos serve-smoke benchmarks \
	fuzz

help:
	@echo "targets:"
	@echo "  make test       - full tier-1 pytest suite"
	@echo "  make test-fast  - tier-1 suite minus the 'slow' marker"
	@echo "                    (annealer/simulator/experiment-heavy tests)"
	@echo "  make lint       - contract linter (repro.analysis): stage input"
	@echo "                    declarations, determinism, pickling safety,"
	@echo "                    lock discipline, stage salts"
	@echo "  make check      - compileall smoke + contract linter + full"
	@echo "                    tier-1 suite + perfbench self-tests"
	@echo "  make coverage   - engine-focused tests under line coverage of"
	@echo "                    src/repro/engine; fails below $(ENGINE_COV_FLOOR)%"
	@echo "  make chaos      - fault-injection suite: every supervision"
	@echo "                    recovery path under injected faults, plus"
	@echo "                    the campaign service killed and resumed"
	@echo "  make fuzz       - campaign-spec, knob-agreement and spec-file"
	@echo "                    fuzzing, the routing, partitioning,"
	@echo "                    placement-LP and wormhole-simulator"
	@echo "                    differential tests,"
	@echo "                    the jobs/store/stage-cache identity test"
	@echo "                    and the no-numpy-scalar data-model test"
	@echo "                    under the large 'fuzz' Hypothesis profile"
	@echo "                    (make test runs the same tests on the"
	@echo "                    default budget)"
	@echo "  make serve-smoke- end-to-end campaign service smoke (submit,"
	@echo "                    drain, journal/store consistency)"
	@echo "  make benchmarks - paper-figure harness + the floorplan,"
	@echo "                    simulator, store-fingerprint, routing,"
	@echo "                    partitioning and placement-LP floors against"
	@echo "                    their frozen references and the stage-record"
	@echo "                    pack floor (slow)"
	@echo "end-to-end benchmark: python3 perfbench/run.py --all"
	@echo "                    (see perfbench/README.md)"

test:
	$(PYTHON) -m pytest -x -q

# Skips tests marked @pytest.mark.slow (floorplan annealer, cycle-accurate
# simulator, full experiment regenerations) for a quick inner loop.
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# The contract linter: every RPL### invariant (stage input declarations,
# determinism, pickling safety, lock discipline, stage salts) over
# src/repro. Exits non-zero on any unsuppressed finding.
lint:
	$(PYTHON) -m repro.cli lint

# The CI gate: a whole-tree import/compile smoke, the contract linter
# (which subsumes the old stage-salt check), the full suite, then the
# end-to-end benchmark's self-tests, so a src/ rename that breaks one of
# the tracer's wrap targets or a workload's call fails here.
check:
	$(PYTHON) -m compileall -q src
	$(PYTHON) -m repro.cli lint
	$(PYTHON) -m pytest -x -q
	$(PYTHON) -m pytest perfbench/selftest.py -q

# Engine coverage gate: settrace-based line coverage (no external coverage
# package in the container), failing under the recorded floor.
coverage:
	$(PYTHON) tools/engine_coverage.py --floor $(ENGINE_COV_FLOOR) -- -q \
	    tests/test_engine.py tests/test_store.py tests/test_profile.py \
	    tests/test_cache_cli.py tests/test_stagecache.py \
	    tests/test_paths_micro_bench.py tests/test_partition_differential.py \
	    tests/test_placement_differential.py \
	    tests/test_faults.py tests/test_locks.py tests/test_journal.py \
	    tests/test_campaign_spec.py tests/test_campaign_service.py \
	    tests/test_analysis.py

# The chaos gate: retries, deadlines, quarantine, Ctrl-C and resume under
# deterministic injected faults (transient failures, worker crashes,
# hangs), plus the service-level suite: a campaign service killed at
# exact points (journal append, batch entry, job boundary) and resumed
# bit-identically.
chaos:
	$(PYTHON) -m pytest -x -q tests/test_faults.py \
	    tests/test_service_chaos.py tests/test_locks.py

# Every generated campaign dict is refused with a CampaignSpecError or
# builds a well-typed spec; every generated knob value is accepted or
# refused alike by its owner, the sweep grid and the campaign validator;
# every generated spec file loads or raises a
# SpecError; every generated design routes exactly as the frozen naive
# router does; every generated graph partitions exactly as the frozen
# naive partitioner does; every generated topology gets the switch
# positions of the frozen naive placement LP; every generated routed
# topology simulates, stats and per-cycle trace, exactly as the frozen
# naive wormhole simulator does; every generated SoC gives
# the same points at jobs=1, at jobs=2, from a warm store and from a warm
# stage cache, in Phase 1 and in Phase 2, and no numpy scalar in its
# points or stage records under either floorplanner. The 'fuzz' profile
# (tests/conftest.py) raises the example budget from the default the
# tier-1 run uses.
fuzz:
	$(PYTHON) -m pytest -x -q tests/test_campaign_fuzz.py \
	    tests/test_knob_agreement.py \
	    tests/test_spec_io_fuzz.py tests/test_paths_differential.py \
	    tests/test_partition_differential.py \
	    tests/test_placement_differential.py \
	    tests/test_simengine_differential.py \
	    tests/test_integration_properties.py::TestExecutionPathIdentity \
	    tests/test_plain_floats.py::test_generated_designs_hold_plain_numbers \
	    --hypothesis-profile=fuzz

# End-to-end campaign service smoke through the real CLI: three specs
# submitted (plus one refused), served to drain, then journal, store,
# result files and inbox checked for mutual consistency.
serve-smoke:
	$(PYTHON) tools/serve_smoke.py

# The paper-figure benchmark harness plus the seven layer floors
# (bench_floorplan_anneal.py, bench_simulator.py (at the validation load
# and saturated), bench_store_fingerprint.py, bench_routing.py,
# bench_partition.py, bench_placement_lp.py: optimised layer vs its
# frozen reference;
# bench_stage_records.py: packed stage-record writes vs the one file
# per record the store wrote before packs, kept in the script as its
# reference leg), slow. Explicit file list: bench_*.py does not match
# pytest's default test-file pattern.
benchmarks:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q -s
