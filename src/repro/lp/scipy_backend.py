"""Lowering of :class:`~repro.lp.model.LinearProgram` to scipy's HiGHS.

``solve_with_scipy`` uses ``scipy.optimize.linprog`` (HiGHS). It handles box
bounds natively. The program's row blocks are stacked with numpy into one
``scipy.sparse.coo_array`` per kind (``<=``/``>=`` rows, ``==`` rows), one
entry per stored coefficient in store order, with ``>=`` rows negated into
``<=`` rows; ``linprog`` converts dense and sparse input alike to CSC
before handing it to HiGHS, so the solver sees the same matrix either way.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array

from repro.errors import InfeasibleLPError, LPError, UnboundedLPError
from repro.lp.model import LinearProgram, RowBlock, Solution


def solve_with_scipy(lp: LinearProgram) -> Solution:
    """Solve with scipy's HiGHS solver."""
    n = lp.num_variables
    a_ub, b_ub = _stack([b for b in lp.blocks if b.sense != "=="], n)
    a_eq, b_eq = _stack([b for b in lp.blocks if b.sense == "=="], n)

    result = linprog(
        c=np.asarray(lp.objective, dtype=float),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=lp.bounds,
        method="highs",
    )
    if result.status == 2:
        raise InfeasibleLPError(result.message)
    if result.status == 3:
        raise UnboundedLPError(result.message)
    if not result.success:
        raise LPError(f"linprog failed: {result.message}")
    return Solution(objective=float(result.fun), values=list(result.x))


def _stack(
    blocks: List[RowBlock], n: int
) -> Tuple[Optional[coo_array], Optional[np.ndarray]]:
    """Row blocks stacked in order into one COO matrix, ``>=`` rows
    negated, plus their right-hand sides; ``(None, None)`` when there are
    no rows."""
    rows, cols, vals, rhs = [], [], [], []
    offset = 0
    for block in blocks:
        sign = -1.0 if block.sense == ">=" else 1.0
        rows.append(block.rows + offset)
        cols.append(block.cols)
        vals.append(sign * block.vals)
        rhs.append(sign * block.rhs)
        offset += len(block.rhs)
    if not offset:
        return None, None
    matrix = coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(offset, n),
    )
    return matrix, np.concatenate(rhs)
