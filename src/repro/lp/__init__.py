"""Linear-programming substrate.

Section VII of the paper formulates switch-position computation as an LP
(Eqs. 2-5) and solves it with the external ``lp_solve`` package [37]. This
package replaces it with:

* :mod:`repro.lp.model` — a small modelling layer (variables with bounds,
  <=/>=/== constraints, linear objective). Constraints are kept in one COO
  store, a list of row blocks of one sense each: ``add_constraint`` appends
  a one-row block from a ``{Variable: coefficient}`` mapping, and
  ``add_rows`` appends a whole block from index and value arrays, next to
  ``add_variables`` for bulk variables. The switch-placement LP of
  :mod:`repro.core.placement` is built with the bulk forms;
  ``as_arrays()`` gives the row-at-a-time view the test oracles read;
* :mod:`repro.lp.scipy_backend` — stacks the blocks with numpy into one
  sparse matrix per kind (``>=`` rows negated into ``<=`` rows) and calls
  ``scipy.optimize.linprog`` (HiGHS), the solver.

``LinearProgram.solve`` is the one door to the solver.
"""

from repro.lp.model import LinearProgram, Solution

__all__ = ["LinearProgram", "Solution"]
