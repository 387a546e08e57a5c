"""A small linear-program modelling layer.

Supports box-bounded variables, linear constraints with <=, >= or == sense,
and a linear minimisation objective. Problems are solved by scipy's HiGHS.

Constraints live in one COO store: a list of blocks, each a run of rows of
one sense given as ``(row, column, value)`` entries plus one right-hand
side per row. :meth:`LinearProgram.add_constraint` appends a one-row block
from a ``{Variable: coefficient}`` mapping; :meth:`LinearProgram.add_rows`
appends a whole block of rows from index arrays, for callers that build a
large program in one pass (the switch-placement LP of
:mod:`repro.core.placement`). :meth:`LinearProgram.add_variables` is the
matching bulk form of :meth:`LinearProgram.add_variable`.

Example::

    lp = LinearProgram()
    x = lp.add_variable("x")                  # x >= 0
    d = lp.add_variable("d")
    lp.add_constraint({d: 1, x: -1}, ">=", -3)   # d >= x - 3  ... d >= |x-3|
    lp.add_constraint({d: 1, x: 1}, ">=", 3)     # d >= 3 - x
    lp.set_objective({d: 1.0})
    sol = lp.solve()
    sol.value(x)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import LPError

SENSES = ("<=", ">=", "==")


@dataclass(frozen=True)
class Variable:
    """Handle for an LP variable (hashable; identity by index)."""

    index: int
    name: str

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Variable({self.name})"


class RowBlock(NamedTuple):
    """Rows of one sense in COO form: entry ``k`` adds
    ``vals[k] * x[cols[k]]`` to the left-hand side of row ``rows[k]``
    (numbered from 0 within the block); row ``r`` reads
    ``lhs <sense> rhs[r]``. Duplicate ``(row, col)`` entries are summed."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    sense: str
    rhs: np.ndarray


@dataclass
class Solution:
    """Result of an LP solve."""

    objective: float
    values: List[float]
    status: str = "optimal"

    def value(self, var: Variable) -> float:
        return self.values[var.index]


class LinearProgram:
    """A minimisation LP assembled incrementally."""

    def __init__(self) -> None:
        # One name per variable; ``None`` for variables added in bulk, which
        # have no handle.
        self._names: List[Optional[str]] = []
        self._lower: List[Optional[float]] = []
        self._upper: List[Optional[float]] = []
        self._cost: List[float] = []
        self._blocks: List[RowBlock] = []

    # -- construction ------------------------------------------------------

    def add_variable(
        self,
        name: str = "",
        low: Optional[float] = 0.0,
        high: Optional[float] = None,
    ) -> Variable:
        """Add a variable with bounds ``low <= v <= high``.

        ``low=None`` means unbounded below; ``high=None`` unbounded above.
        Default is a standard non-negative variable.
        """
        if low is not None and high is not None and low > high:
            raise LPError(f"variable {name!r}: lower bound {low} > upper {high}")
        index = len(self._names)
        self._names.append(name or f"v{index}")
        self._lower.append(low)
        self._upper.append(high)
        self._cost.append(0.0)
        return Variable(index=index, name=self._names[-1])

    def add_variables(
        self,
        count: int,
        low: Optional[float] = 0.0,
        high: Optional[float] = None,
        cost: Optional[Sequence[float]] = None,
    ) -> range:
        """Add ``count`` variables sharing the bounds ``low <= v <= high``,
        with objective coefficients ``cost`` (zero when omitted). Returns
        their indices, the column numbers :meth:`add_rows` takes."""
        if count < 0:
            raise LPError(f"cannot add {count} variables")
        if low is not None and high is not None and low > high:
            raise LPError(f"variables: lower bound {low} > upper {high}")
        costs = [0.0] * count if cost is None else [float(c) for c in cost]
        if len(costs) != count:
            raise LPError(f"{len(costs)} costs for {count} variables")
        start = len(self._names)
        self._names.extend([None] * count)
        self._lower.extend([low] * count)
        self._upper.extend([high] * count)
        self._cost.extend(costs)
        return range(start, start + count)

    def add_constraint(
        self,
        coeffs: Mapping[Variable, float],
        sense: str,
        rhs: float,
    ) -> None:
        """Add ``sum(c * v) <sense> rhs`` with sense one of <=, >=, ==.
        Zero coefficients are dropped."""
        if sense not in SENSES:
            raise LPError(f"unknown constraint sense {sense!r}")
        flat: Dict[int, float] = {}
        for var, c in coeffs.items():
            self._check_var(var)
            if c:
                flat[var.index] = flat.get(var.index, 0.0) + float(c)
        n = len(flat)
        self._blocks.append(RowBlock(
            np.zeros(n, dtype=np.intp),
            np.fromiter(flat, dtype=np.intp, count=n),
            np.fromiter(flat.values(), dtype=float, count=n),
            sense,
            np.array([float(rhs)]),
        ))

    def add_rows(
        self,
        rows: Sequence[int],
        cols: Sequence[int],
        vals: Sequence[float],
        sense: str,
        rhs: Sequence[float],
    ) -> None:
        """Append ``len(rhs)`` rows of one ``sense`` given as COO entries:
        entry ``k`` adds ``vals[k] * x[cols[k]]`` to row ``rows[k]``, rows
        numbered from 0 within this call and columns as returned by
        :meth:`add_variables` (or ``Variable.index``). Entries are kept as
        given, zeros included, in the order given."""
        if sense not in SENSES:
            raise LPError(f"unknown constraint sense {sense!r}")
        block = RowBlock(
            np.array(rows, dtype=np.intp),
            np.array(cols, dtype=np.intp),
            np.array(vals, dtype=float),
            sense,
            np.array(rhs, dtype=float),
        )
        if not (block.rows.ndim == block.cols.ndim == block.vals.ndim
                == block.rhs.ndim == 1):
            raise LPError("add_rows takes one-dimensional arrays")
        if not len(block.rows) == len(block.cols) == len(block.vals):
            raise LPError(
                f"add_rows: {len(block.rows)} rows, {len(block.cols)} "
                f"columns and {len(block.vals)} values"
            )
        if len(block.rows) and not (
            0 <= block.rows.min() and block.rows.max() < len(block.rhs)
        ):
            raise LPError(f"add_rows: a row index outside [0, {len(block.rhs)})")
        if len(block.cols) and not (
            0 <= block.cols.min() and block.cols.max() < len(self._names)
        ):
            raise LPError("add_rows: a column that is not a variable of "
                          "this program")
        self._blocks.append(block)

    def set_objective(self, coeffs: Mapping[Variable, float]) -> None:
        """Set the minimisation objective ``sum(c * v)``."""
        for var in coeffs:
            self._check_var(var)
        self._cost = [0.0] * len(self._names)
        for var, c in coeffs.items():
            if c:
                self._cost[var.index] += float(c)

    def add_objective_term(self, var: Variable, coeff: float) -> None:
        """Accumulate ``coeff * var`` into the objective."""
        self._check_var(var)
        if coeff:
            self._cost[var.index] += float(coeff)

    # -- introspection -----------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._names)

    @property
    def num_constraints(self) -> int:
        return sum(len(block.rhs) for block in self._blocks)

    @property
    def blocks(self) -> Tuple[RowBlock, ...]:
        """The constraint store, one :class:`RowBlock` per append."""
        return tuple(self._blocks)

    @property
    def objective(self) -> List[float]:
        """The objective coefficient of every variable, in index order."""
        return list(self._cost)

    @property
    def bounds(self) -> List[Tuple[Optional[float], Optional[float]]]:
        """``(low, high)`` of every variable; ``None`` is unbounded."""
        return list(zip(self._lower, self._upper))

    def as_arrays(self) -> Tuple[
        List[float],
        List[Tuple[Dict[int, float], str, float]],
        List[Tuple[Optional[float], Optional[float]]],
    ]:
        """Objective vector, ``(coefficients, sense, rhs)`` per row in
        order, and bounds — the row-at-a-time view, for solvers that take
        one."""
        rows: List[Tuple[Dict[int, float], str, float]] = []
        for block in self._blocks:
            coeffs: List[Dict[int, float]] = [{} for _ in block.rhs]
            for r, col, val in zip(
                block.rows.tolist(), block.cols.tolist(), block.vals.tolist()
            ):
                coeffs[r][col] = coeffs[r].get(col, 0.0) + val
            rows.extend(
                (row, block.sense, rhs)
                for row, rhs in zip(coeffs, block.rhs.tolist())
            )
        return self.objective, rows, self.bounds

    # -- solving -----------------------------------------------------------

    def solve(self) -> Solution:
        """Solve the LP with scipy's HiGHS."""
        from repro.lp.scipy_backend import solve_with_scipy

        return solve_with_scipy(self)

    def _check_var(self, var: Variable) -> None:
        if not isinstance(var, Variable):
            raise LPError(f"expected a Variable, got {type(var).__name__}")
        if not (0 <= var.index < len(self._names)):
            raise LPError(f"variable {var!r} does not belong to this program")
        if self._names[var.index] != var.name:
            raise LPError(f"variable {var!r} does not belong to this program")
