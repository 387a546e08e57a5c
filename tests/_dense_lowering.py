"""The dense LP lowering: the oracle of the sparse one in ``repro.lp``.

``solve_with_dense_scipy`` is ``repro.lp.scipy_backend.solve_with_scipy``
as it was before the lowering went sparse: one dense Python row per
constraint, handed to ``linprog`` through ``np.asarray``. The tests assert
the sparse lowering returns the same :class:`~repro.lp.model.Solution`, or
raises the same error, on every program.

Do not "optimise" this module.
"""

from __future__ import annotations

from typing import List

import numpy as np
from scipy.optimize import linprog

from repro.errors import InfeasibleLPError, LPError, UnboundedLPError
from repro.lp.model import LinearProgram, Solution


def solve_with_dense_scipy(lp: LinearProgram) -> Solution:
    """Solve with scipy's HiGHS solver."""
    c, rows, bounds = lp.as_arrays()
    n = len(c)

    a_ub: List[List[float]] = []
    b_ub: List[float] = []
    a_eq: List[List[float]] = []
    b_eq: List[float] = []
    for coeffs, sense, rhs in rows:
        dense = [0.0] * n
        for idx, coef in coeffs.items():
            dense[idx] = coef
        if sense == "<=":
            a_ub.append(dense)
            b_ub.append(rhs)
        elif sense == ">=":
            a_ub.append([-v for v in dense])
            b_ub.append(-rhs)
        else:
            a_eq.append(dense)
            b_eq.append(rhs)

    result = linprog(
        c=np.asarray(c, dtype=float),
        A_ub=np.asarray(a_ub) if a_ub else None,
        b_ub=np.asarray(b_ub) if b_ub else None,
        A_eq=np.asarray(a_eq) if a_eq else None,
        b_eq=np.asarray(b_eq) if b_eq else None,
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
