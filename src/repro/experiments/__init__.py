"""Experiment runners: one module per table/figure of the paper's evaluation.

Every module exposes a ``run_*`` function returning an
:class:`~repro.experiments.common.ExperimentResult` whose rows mirror the
series the paper plots, plus a printable table. The ``benchmarks/`` harness
and the example scripts both drive these runners; each
``benchmarks/bench_*.py`` module checks the shape of one runner's result
against the paper's claim.

Index:

========  ==========================================================
fig1      :func:`repro.experiments.fig01_yield.run_yield_curves`
fig10/11  :func:`repro.experiments.power_curves.run_power_vs_switches`
fig12     :func:`repro.experiments.wirelength.run_wirelength_distribution`
fig13-16  :func:`repro.experiments.topology_report.run_topology_report`
fig17     :func:`repro.experiments.phase_comparison.run_phase_comparison`
table1    :func:`repro.experiments.table1_2d_vs_3d.run_table1`
fig18-20  :func:`repro.experiments.floorplan_comparison.*`
fig21/22  :func:`repro.experiments.max_ill_sweep.run_max_ill_sweep`
fig23     :func:`repro.experiments.mesh_comparison.run_mesh_comparison`
========  ==========================================================
"""

from repro.experiments.common import (
    ExperimentResult,
    default_config_for,
    synthesize_cached,
)

__all__ = ["ExperimentResult", "default_config_for", "synthesize_cached"]
