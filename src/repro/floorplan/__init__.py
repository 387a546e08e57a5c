"""Floorplanning substrate.

Three roles (paper Secs. VII and VIII-D):

* :mod:`repro.floorplan.annealer` — a sequence-pair simulated-annealing
  floorplanner (our stand-in for Parquet [38]); used to *generate* the input
  core floorplans of the benchmarks.
* :mod:`repro.floorplan.inserter` — the paper's custom NoC-insertion routine:
  place each switch / TSV macro as close as possible to its ideal position,
  searching nearby free space first and cascading block displacements when
  none exists.
* :mod:`repro.floorplan.constrained` — the "constrained standard
  floorplanner" baseline: the SA floorplanner restricted to never change the
  relative order of the cores while inserting the network components.

:mod:`repro.floorplan.tsv_macros` places the TSV area-reservation macros of
Sec. III for every vertical link.

Both annealing loops run on the incremental evaluation engine of
:mod:`repro.floorplan.engine` (in-place moves with undo, allocation-free
packing, delta wirelength), one seeded anneal per call. The frozen
pre-optimisation baselines live in :mod:`repro.floorplan.reference` — see
``docs/floorplan.md``.
"""

from repro.floorplan.geometry import Rect, bounding_box, rects_overlap
from repro.floorplan.placement import ChipFloorplan, PlacedComponent
from repro.floorplan.sequence_pair import SequencePair, seqpair_to_positions
from repro.floorplan.annealer import FloorplanResult, anneal_floorplan
from repro.floorplan.inserter import insert_components
from repro.floorplan.constrained import constrained_insert
from repro.floorplan.tsv_macros import place_tsv_macros

__all__ = [
    "Rect",
    "bounding_box",
    "rects_overlap",
    "ChipFloorplan",
    "PlacedComponent",
    "SequencePair",
    "seqpair_to_positions",
    "FloorplanResult",
    "anneal_floorplan",
    "insert_components",
    "constrained_insert",
    "place_tsv_macros",
]
