"""Lowering of :class:`~repro.lp.model.LinearProgram` to scipy's HiGHS.

``solve_with_scipy`` uses ``scipy.optimize.linprog`` (HiGHS). It handles box
bounds natively. The constraint rows are lowered to sparse
``scipy.sparse.coo_array`` matrices, one entry per stored coefficient;
``linprog`` converts dense and sparse input alike to CSC before handing it
to HiGHS, so the solver sees the same matrix either way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array

from repro.errors import InfeasibleLPError, LPError, UnboundedLPError
from repro.lp.model import LinearProgram, Solution


def solve_with_scipy(lp: LinearProgram) -> Solution:
    """Solve with scipy's HiGHS solver."""
    c, rows, bounds = lp.as_arrays()
    n = len(c)

    # (coefficients, rhs, sign): ``>=`` rows are negated into ``<=`` rows.
    ub: List[Tuple[Dict[int, float], float, float]] = []
    eq: List[Tuple[Dict[int, float], float, float]] = []
    for coeffs, sense, rhs in rows:
        if sense == "==":
            eq.append((coeffs, rhs, 1.0))
        else:
            ub.append((coeffs, rhs, -1.0 if sense == ">=" else 1.0))
    a_ub, b_ub = _lower(ub, n)
    a_eq, b_eq = _lower(eq, n)

    result = linprog(
        c=np.asarray(c, dtype=float),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if result.status == 2:
        raise InfeasibleLPError(result.message)
    if result.status == 3:
        raise UnboundedLPError(result.message)
    if not result.success:
        raise LPError(f"linprog failed: {result.message}")
    return Solution(objective=float(result.fun), values=list(result.x))


def _lower(
    block: List[Tuple[Dict[int, float], float, float]], n: int
) -> Tuple[Optional[coo_array], Optional[np.ndarray]]:
    """One constraint block as a COO matrix with one entry per stored
    coefficient, plus its right-hand sides; ``(None, None)`` when empty."""
    if not block:
        return None, None
    row: List[int] = []
    col: List[int] = []
    data: List[float] = []
    for r, (coeffs, _rhs, sign) in enumerate(block):
        for idx, coef in coeffs.items():
            row.append(r)
            col.append(idx)
            data.append(sign * coef)
    matrix = coo_array((data, (row, col)), shape=(len(block), n))
    return matrix, np.asarray([sign * rhs for _coeffs, rhs, sign in block])
