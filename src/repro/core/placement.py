"""Switch position computation — the LP of Sec. VII (Eqs. 2-5).

For a routed topology, the (x, y) of every switch is chosen to minimise the
bandwidth-weighted sum of Manhattan distances to the cores and switches it
connects to::

    obj = sum coredist(i,k) * bw_sw2core(i,k) + sum swdist(i,j) * bw_sw2sw(i,j)

Manhattan distances are linearised with auxiliary variables
(``d >= a - b``, ``d >= b - a``); the LP is solved with the scipy/HiGHS
solver of :mod:`repro.lp` (the paper used lp_solve). TSV macros are excluded
from the LP — "TSVs split the wires in two segments, both carrying the same
bandwidth. Therefore, the placement of the TSV macro is more relaxed."
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import LPError
from repro.lp.model import LinearProgram
from repro.noc.topology import Topology

#: The coefficients of one pair's four "<=" rows, row by row: a switch-core
#: row has entries (dx, xs_s), a switch-switch row (dx, xs_a, xs_b); the y
#: rows alike.
_CORE_ROW_VALS = np.array([-1.0, 1.0, -1.0, -1.0] * 2)
_SW_ROW_VALS = np.array([-1.0, 1.0, -1.0, -1.0, -1.0, 1.0] * 2)


def optimise_switch_positions(
    topology: Topology,
    core_centers: Mapping[int, Tuple[float, float]],
    die_width_mm: float,
    die_height_mm: float,
) -> float:
    """Set every switch's (x, y) to the LP optimum. Returns the objective.

    Args:
        topology: Routed topology; link loads provide the bandwidth weights.
        core_centers: Fixed (x, y) of every attached core.
        die_width_mm / die_height_mm: Bounds for the switch coordinates
            (the input floorplan's extent).
    """
    nsw = len(topology.switches)
    if nsw == 0:
        return 0.0
    if die_width_mm <= 0 or die_height_mm <= 0:
        raise LPError("die bounds must be positive")

    # Aggregate bandwidth between connected component pairs. Both directions
    # of a pair share the same distance, so their loads are summed.
    sw2core: Dict[Tuple[int, int], float] = {}
    sw2sw: Dict[Tuple[int, int], float] = {}
    for link in topology.links:
        skind, sidx = link.src
        dkind, didx = link.dst
        if skind == "switch" and dkind == "switch":
            key = (min(sidx, didx), max(sidx, didx))
            sw2sw[key] = sw2sw.get(key, 0.0) + link.load_mbps
        elif skind == "switch" and dkind == "core":
            key = (sidx, didx)
            sw2core[key] = sw2core.get(key, 0.0) + link.load_mbps
        elif skind == "core" and dkind == "switch":
            key = (didx, sidx)
            sw2core[key] = sw2core.get(key, 0.0) + link.load_mbps

    core_pairs = sorted(sw2core.items())
    sw_pairs = sorted(sw2sw.items())
    n_core, n_sw = len(core_pairs), len(sw_pairs)

    # Variables in index order: every xs, every ys, then (dx, dy) of each
    # switch-core pair and of each switch-switch pair, in sorted pair order.
    # Zero-bandwidth connections still get a tiny pull so disconnected
    # switches don't wander; weight epsilon keeps the LP bounded and tidy.
    eps = 1e-6
    lp = LinearProgram()
    lp.add_variables(nsw, low=0.0, high=die_width_mm)
    lp.add_variables(nsw, low=0.0, high=die_height_mm)
    weights = [max(bw, eps) for _pair, bw in core_pairs + sw_pairs]
    lp.add_variables(2 * (n_core + n_sw), cost=np.repeat(weights, 2))

    # Four rows per pair, dx >= a - b, dx >= b - a and the same in y, built
    # already negated into "<=" rows. For switch-core pair p (switch s,
    # core centre (cx, cy)) with d = 2 nsw + 2p the index of its dx:
    #   -dx + xs_s <= cx,   -dx - xs_s <= -cx   (and in y with ys_s, cy)
    # For switch-switch pair q (switches a < b), d = 2 nsw + 2 (n_core + q):
    #   -dx + xs_a - xs_b <= -0.0,   -dx - xs_a + xs_b <= -0.0
    # where -0.0 is the negated 0.0 right-hand side. Rows, and entries
    # within a row, come in the order the per-row construction gave them.
    s = np.array([i for (i, _k), _bw in core_pairs], dtype=np.intp)
    d = 2 * nsw + 2 * np.arange(n_core, dtype=np.intp)
    core_cols = np.stack(
        [d, s, d, s, d + 1, nsw + s, d + 1, nsw + s], axis=1
    )
    centres = np.array(
        [core_centers[k] for (_i, k), _bw in core_pairs], dtype=float
    ).reshape(n_core, 2)
    cx, cy = centres[:, 0], centres[:, 1]

    ends = np.array([key for key, _bw in sw_pairs], dtype=np.intp)
    a, b = ends.reshape(n_sw, 2).T
    d = 2 * nsw + 2 * (n_core + np.arange(n_sw, dtype=np.intp))
    sw_cols = np.stack([
        d, a, b, d, a, b, d + 1, nsw + a, nsw + b, d + 1, nsw + a, nsw + b,
    ], axis=1)

    lp.add_rows(
        rows=np.concatenate([
            np.repeat(np.arange(4 * n_core), 2),
            4 * n_core + np.repeat(np.arange(4 * n_sw), 3),
        ]),
        cols=np.concatenate([core_cols.ravel(), sw_cols.ravel()]),
        vals=np.concatenate([
            np.tile(_CORE_ROW_VALS, n_core), np.tile(_SW_ROW_VALS, n_sw),
        ]),
        sense="<=",
        rhs=np.concatenate([
            np.stack([cx, -cx, cy, -cy], axis=1).ravel(),
            np.full(4 * n_sw, -0.0),
        ]),
    )
    solution = lp.solve()

    connected = {i for (i, _k) in sw2core} | {
        i for pair in sw2sw for i in pair
    }
    for i, sw in enumerate(topology.switches):
        if i in connected:
            # Plain floats: a numpy scalar here would flow on into every
            # link length, rectangle and metric of the design point.
            sw.x = float(solution.values[i])
            sw.y = float(solution.values[nsw + i])
        else:
            # A switch nothing connects to (can only be an unused indirect
            # switch): centre of the die.
            sw.x = die_width_mm / 2.0
            sw.y = die_height_mm / 2.0
    return solution.objective


def placement_objective(
    topology: Topology,
    core_centers: Mapping[int, Tuple[float, float]],
) -> float:
    """Evaluate Eq. (4) for the topology's *current* switch positions."""
    total = 0.0
    for link in topology.links:
        skind, sidx = link.src
        dkind, didx = link.dst
        if skind == "switch":
            a: Optional[Tuple[float, float]] = topology.switches[sidx].center
        else:
            a = core_centers[sidx]
        if dkind == "switch":
            b: Optional[Tuple[float, float]] = topology.switches[didx].center
        else:
            b = core_centers[didx]
        total += link.load_mbps * (abs(a[0] - b[0]) + abs(a[1] - b[1]))
    return total
