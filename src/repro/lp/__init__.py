"""Linear-programming substrate.

Section VII of the paper formulates switch-position computation as an LP
(Eqs. 2-5) and solves it with the external ``lp_solve`` package [37]. This
package replaces it with:

* :mod:`repro.lp.model` — a small modelling layer (named variables with
  bounds, <=/>=/== constraints, linear objective);
* :mod:`repro.lp.scipy_backend` — sparse lowering to
  ``scipy.optimize.linprog`` (HiGHS), the solver.
"""

from repro.lp.model import LinearProgram, Solution

__all__ = ["LinearProgram", "Solution"]
