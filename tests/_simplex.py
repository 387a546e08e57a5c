"""Dense two-phase simplex: the independent LP oracle of the test suite.

``solve_simplex`` solves ``min c^T x  s.t.  A_i x (<=|>=|==) b_i,  x >= 0``
with the classic tableau method and Bland's anti-cycling rule.
``solve_with_simplex`` lowers a :class:`repro.lp.model.LinearProgram` to
that form — bounded-below variables are shifted (``x = lo + x'``), free
variables are split (``x = x+ - x-``), and finite upper bounds become extra
rows — so every LP case can be cross-checked against scipy/HiGHS, the
solver behind :meth:`LinearProgram.solve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InfeasibleLPError, LPError, UnboundedLPError
from repro.lp.model import LinearProgram, Solution

_EPS = 1e-9


@dataclass
class SimplexResult:
    objective: float
    x: np.ndarray
    iterations: int


def solve_simplex(
    c: Sequence[float],
    rows: Sequence[Tuple[Sequence[float], str, float]],
    max_iterations: int = 50_000,
) -> SimplexResult:
    """Solve ``min c.x`` subject to ``rows`` with all variables >= 0.

    Args:
        c: Objective coefficients, length n.
        rows: Triples ``(coeffs, sense, rhs)`` with sense <=, >= or ==.
        max_iterations: Pivot budget before giving up.

    Raises:
        InfeasibleLPError: No feasible point exists.
        UnboundedLPError: The objective is unbounded below.
        LPError: Malformed input or iteration budget exhausted.
    """
    n = len(c)
    m = len(rows)
    if m == 0:
        # Feasible at the origin; with x >= 0 and min c.x, any negative cost
        # coordinate is unbounded.
        if any(ci < -_EPS for ci in c):
            raise UnboundedLPError("unconstrained negative-cost variable")
        return SimplexResult(objective=0.0, x=np.zeros(n), iterations=0)

    a = np.zeros((m, n), dtype=float)
    b = np.zeros(m, dtype=float)
    senses: List[str] = []
    for i, (coeffs, sense, rhs) in enumerate(rows):
        if len(coeffs) != n:
            raise LPError(f"row {i} has {len(coeffs)} coefficients, expected {n}")
        if sense not in ("<=", ">=", "=="):
            raise LPError(f"row {i}: unknown sense {sense!r}")
        a[i, :] = coeffs
        b[i] = rhs
        senses.append(sense)

    # Normalise to b >= 0.
    for i in range(m):
        if b[i] < 0:
            a[i, :] = -a[i, :]
            b[i] = -b[i]
            if senses[i] == "<=":
                senses[i] = ">="
            elif senses[i] == ">=":
                senses[i] = "<="

    # Count auxiliary columns: slack for <=, surplus+artificial for >=,
    # artificial for ==.
    n_slack = sum(1 for s in senses if s == "<=")
    n_surplus = sum(1 for s in senses if s == ">=")
    n_art = sum(1 for s in senses if s in (">=", "=="))
    total = n + n_slack + n_surplus + n_art

    tableau = np.zeros((m, total), dtype=float)
    tableau[:, :n] = a
    basis = [-1] * m
    slack_at = n
    surplus_at = n + n_slack
    art_at = n + n_slack + n_surplus
    artificial_cols: List[int] = []
    for i, sense in enumerate(senses):
        if sense == "<=":
            tableau[i, slack_at] = 1.0
            basis[i] = slack_at
            slack_at += 1
        elif sense == ">=":
            tableau[i, surplus_at] = -1.0
            surplus_at += 1
            tableau[i, art_at] = 1.0
            basis[i] = art_at
            artificial_cols.append(art_at)
            art_at += 1
        else:  # ==
            tableau[i, art_at] = 1.0
            basis[i] = art_at
            artificial_cols.append(art_at)
            art_at += 1

    rhs_col = b.copy()
    iterations = 0

    if artificial_cols:
        # Phase 1: minimise the sum of artificials.
        phase1_cost = np.zeros(total)
        for col in artificial_cols:
            phase1_cost[col] = 1.0
        iterations += _run_phase(
            tableau, rhs_col, basis, phase1_cost, max_iterations
        )
        phase1_obj = sum(
            rhs_col[i] for i in range(m) if basis[i] in set(artificial_cols)
        )
        if phase1_obj > 1e-7:
            raise InfeasibleLPError("phase-1 objective positive: no feasible point")
        _drive_out_artificials(tableau, rhs_col, basis, set(artificial_cols), n)

    # Phase 2.
    phase2_cost = np.zeros(total)
    phase2_cost[:n] = np.asarray(c, dtype=float)
    # Forbid artificials from re-entering.
    forbidden = set(artificial_cols)
    iterations += _run_phase(
        tableau, rhs_col, basis, phase2_cost, max_iterations, forbidden
    )

    x = np.zeros(n)
    for i, col in enumerate(basis):
        if col < n:
            x[col] = rhs_col[i]
    objective = float(np.dot(np.asarray(c, dtype=float), x))
    return SimplexResult(objective=objective, x=x, iterations=iterations)


def _reduced_costs(
    tableau: np.ndarray, basis: List[int], cost: np.ndarray
) -> np.ndarray:
    cb = cost[basis]
    return cost - cb @ tableau


def _run_phase(
    tableau: np.ndarray,
    rhs: np.ndarray,
    basis: List[int],
    cost: np.ndarray,
    max_iterations: int,
    forbidden: set = frozenset(),
) -> int:
    m, total = tableau.shape
    iterations = 0
    while True:
        reduced = _reduced_costs(tableau, basis, cost)
        entering = -1
        for j in range(total):  # Bland's rule: smallest eligible index.
            if j in forbidden:
                continue
            if reduced[j] < -_EPS:
                entering = j
                break
        if entering < 0:
            return iterations

        # Ratio test.
        leaving = -1
        best_ratio = None
        for i in range(m):
            coef = tableau[i, entering]
            if coef > _EPS:
                ratio = rhs[i] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio - _EPS
                    or (abs(ratio - best_ratio) <= _EPS and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise UnboundedLPError("no leaving row: objective unbounded below")

        _pivot(tableau, rhs, basis, leaving, entering)
        iterations += 1
        if iterations > max_iterations:
            raise LPError(f"simplex exceeded {max_iterations} pivots")


def _pivot(
    tableau: np.ndarray,
    rhs: np.ndarray,
    basis: List[int],
    row: int,
    col: int,
) -> None:
    pivot_val = tableau[row, col]
    tableau[row, :] /= pivot_val
    rhs[row] /= pivot_val
    for i in range(tableau.shape[0]):
        if i != row and abs(tableau[i, col]) > 0:
            factor = tableau[i, col]
            tableau[i, :] -= factor * tableau[row, :]
            rhs[i] -= factor * rhs[row]
    basis[row] = col


def _drive_out_artificials(
    tableau: np.ndarray,
    rhs: np.ndarray,
    basis: List[int],
    artificial_cols: set,
    n_real: int,
) -> None:
    """Pivot basic artificials (at value 0) out of the basis when possible."""
    m, total = tableau.shape
    for i in range(m):
        if basis[i] in artificial_cols:
            entering = -1
            for j in range(total):
                if j not in artificial_cols and abs(tableau[i, j]) > _EPS:
                    entering = j
                    break
            if entering >= 0:
                _pivot(tableau, rhs, basis, i, entering)
            # Otherwise the row is all zeros over real columns: redundant
            # constraint; the artificial stays basic at value 0, harmless.


def solve_with_simplex(lp: LinearProgram) -> Solution:
    """Solve with the built-in dense simplex (after bound reduction)."""
    c, rows, bounds = lp.as_arrays()
    n = len(c)

    # Build the substitution x_orig = shift + (pos - neg); neg column only
    # for free variables.
    pos_col: List[int] = [0] * n
    neg_col: List[Optional[int]] = [None] * n
    shift: List[float] = [0.0] * n
    next_col = 0
    upper_rows: List[Tuple[int, float]] = []  # (orig var, residual upper)
    for i, (lo, hi) in enumerate(bounds):
        pos_col[i] = next_col
        next_col += 1
        if lo is None:
            neg_col[i] = next_col
            next_col += 1
            shift[i] = 0.0
            if hi is not None:
                upper_rows.append((i, hi))
        else:
            shift[i] = lo
            if hi is not None:
                if hi < lo:
                    raise LPError(f"variable {i}: upper bound below lower bound")
                upper_rows.append((i, hi))

    total = next_col

    def expand(coeffs_dense_pairs) -> List[float]:
        dense = [0.0] * total
        for idx, coef in coeffs_dense_pairs:
            dense[pos_col[idx]] += coef
            if neg_col[idx] is not None:
                dense[neg_col[idx]] -= coef
        return dense

    sim_rows: List[Tuple[List[float], str, float]] = []
    for coeffs, sense, rhs in rows:
        pairs = list(coeffs.items())
        dense = expand(pairs)
        adj_rhs = rhs - sum(coef * shift[idx] for idx, coef in pairs)
        sim_rows.append((dense, sense, adj_rhs))
    for idx, hi in upper_rows:
        dense = expand([(idx, 1.0)])
        sim_rows.append((dense, "<=", hi - shift[idx]))

    sim_c = expand(list(enumerate(c)))
    const_term = sum(ci * si for ci, si in zip(c, shift))

    result = solve_simplex(sim_c, sim_rows)

    values = [0.0] * n
    for i in range(n):
        v = result.x[pos_col[i]]
        if neg_col[i] is not None:
            v -= result.x[neg_col[i]]
        values[i] = shift[i] + v
    return Solution(objective=result.objective + const_term, values=values)
