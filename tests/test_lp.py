"""LP modelling layer (repro.lp), every case solved by HiGHS and by the
dense simplex oracle; the sparse lowering pinned to the dense one."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InfeasibleLPError, LPError, UnboundedLPError
from repro.lp.model import LinearProgram, Variable

from _dense_lowering import solve_with_dense_scipy
from _simplex import solve_simplex, solve_with_simplex

SOLVERS = (
    pytest.param(LinearProgram.solve, id="scipy"),
    pytest.param(solve_with_simplex, id="simplex"),
)


class TestModel:
    def test_variable_bounds_validated(self):
        lp = LinearProgram()
        with pytest.raises(LPError):
            lp.add_variable("x", low=2.0, high=1.0)

    def test_unknown_sense_rejected(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        with pytest.raises(LPError):
            lp.add_constraint({x: 1.0}, "<", 1.0)

    def test_foreign_variable_rejected(self):
        lp1, lp2 = LinearProgram(), LinearProgram()
        x1 = lp1.add_variable("x")
        lp2.add_variable("y")
        with pytest.raises(LPError):
            lp2.add_constraint({x1: 1.0}, "<=", 1.0)

    def test_counts(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.add_constraint({x: 1.0}, "<=", 4.0)
        assert lp.num_variables == 1
        assert lp.num_constraints == 1


@pytest.mark.parametrize("solve", SOLVERS)
class TestSolve:
    def test_simple_minimisation(self, solve):
        # min x + y  s.t. x + y >= 2, x >= 0, y >= 0 -> objective 2.
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        lp.add_constraint({x: 1.0, y: 1.0}, ">=", 2.0)
        lp.set_objective({x: 1.0, y: 1.0})
        sol = solve(lp)
        assert sol.objective == pytest.approx(2.0)

    def test_equality_constraint(self, solve):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        lp.add_constraint({x: 1.0, y: 2.0}, "==", 4.0)
        lp.set_objective({x: 3.0, y: 1.0})
        sol = solve(lp)
        # Cheapest: all weight on y: y = 2, objective 2.
        assert sol.objective == pytest.approx(2.0)
        assert sol.value(y) == pytest.approx(2.0)

    def test_upper_bounds(self, solve):
        # max x (== min -x) with x <= 7 via bound.
        lp = LinearProgram()
        x = lp.add_variable("x", low=0.0, high=7.0)
        lp.set_objective({x: -1.0})
        sol = solve(lp)
        assert sol.value(x) == pytest.approx(7.0)

    def test_free_variable(self, solve):
        # min |x - (-3)| linearised: d >= x+3, d >= -x-3, x free.
        lp = LinearProgram()
        x = lp.add_variable("x", low=None)
        d = lp.add_variable("d")
        lp.add_constraint({d: 1.0, x: -1.0}, ">=", 3.0)
        lp.add_constraint({d: 1.0, x: 1.0}, ">=", -3.0)
        lp.set_objective({d: 1.0})
        sol = solve(lp)
        assert sol.objective == pytest.approx(0.0, abs=1e-6)
        assert sol.value(x) == pytest.approx(-3.0, abs=1e-6)

    def test_shifted_lower_bound(self, solve):
        lp = LinearProgram()
        x = lp.add_variable("x", low=5.0)
        lp.set_objective({x: 1.0})
        sol = solve(lp)
        assert sol.value(x) == pytest.approx(5.0)

    def test_infeasible_detected(self, solve):
        lp = LinearProgram()
        x = lp.add_variable("x", low=0.0, high=1.0)
        lp.add_constraint({x: 1.0}, ">=", 5.0)
        lp.set_objective({x: 1.0})
        with pytest.raises(InfeasibleLPError):
            solve(lp)

    def test_unbounded_detected(self, solve):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.set_objective({x: -1.0})
        with pytest.raises(UnboundedLPError):
            solve(lp)

    def test_manhattan_median(self, solve):
        # min sum |x - a_i| over a = (0, 4, 10): optimum at the median (4).
        lp = LinearProgram()
        x = lp.add_variable("x")
        total = {}
        for i, a in enumerate((0.0, 4.0, 10.0)):
            d = lp.add_variable(f"d{i}")
            lp.add_constraint({d: 1.0, x: -1.0}, ">=", -a)
            lp.add_constraint({d: 1.0, x: 1.0}, ">=", a)
            total[d] = 1.0
        lp.set_objective(total)
        sol = solve(lp)
        assert sol.value(x) == pytest.approx(4.0, abs=1e-6)
        assert sol.objective == pytest.approx(10.0, abs=1e-6)


class TestSimplexDirect:
    def test_empty_program_feasible(self):
        result = solve_simplex([1.0, 2.0], [])
        assert result.objective == 0.0

    def test_empty_program_unbounded(self):
        with pytest.raises(UnboundedLPError):
            solve_simplex([-1.0], [])

    def test_row_length_mismatch(self):
        with pytest.raises(LPError):
            solve_simplex([1.0, 1.0], [([1.0], "<=", 1.0)])

    def test_negative_rhs_normalised(self):
        # -x <= -2  <=>  x >= 2.
        result = solve_simplex([1.0], [([-1.0], "<=", -2.0)])
        assert result.objective == pytest.approx(2.0)

    def test_degenerate_redundant_equalities(self):
        rows = [
            ([1.0, 1.0], "==", 2.0),
            ([2.0, 2.0], "==", 4.0),  # redundant
        ]
        result = solve_simplex([1.0, 0.0], rows)
        assert result.objective == pytest.approx(0.0, abs=1e-9)


class TestBackendsAgree:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_bounded_lps_match(self, data):
        """Cross-check the hand-rolled simplex against scipy/HiGHS."""
        n = data.draw(st.integers(min_value=1, max_value=4))
        m = data.draw(st.integers(min_value=1, max_value=4))
        lp_a, lp_b = LinearProgram(), LinearProgram()
        vars_a = [lp_a.add_variable(f"x{i}", low=0.0, high=10.0) for i in range(n)]
        vars_b = [lp_b.add_variable(f"x{i}", low=0.0, high=10.0) for i in range(n)]
        coeff = st.integers(min_value=-3, max_value=3)
        for _ in range(m):
            row = [data.draw(coeff) for _ in range(n)]
            rhs = data.draw(st.integers(min_value=0, max_value=20))
            for lp, vs in ((lp_a, vars_a), (lp_b, vars_b)):
                lp.add_constraint(
                    {v: c for v, c in zip(vs, row)}, "<=", float(rhs)
                )
        obj = [data.draw(st.integers(min_value=0, max_value=3)) for _ in range(n)]
        lp_a.set_objective({v: c for v, c in zip(vars_a, obj)})
        lp_b.set_objective({v: c for v, c in zip(vars_b, obj)})
        sol_a = lp_a.solve()
        sol_b = solve_with_simplex(lp_b)
        assert sol_a.objective == pytest.approx(sol_b.objective, abs=1e-6)


def _outcome(solve, lp):
    """The solution, or the error type and message."""
    try:
        return solve(lp)
    except LPError as exc:
        return type(exc), str(exc)


def _assert_lowerings_agree(lp):
    sparse = _outcome(LinearProgram.solve, lp)
    assert sparse == _outcome(solve_with_dense_scipy, lp)
    return sparse


class TestSparseLoweringMatchesDense:
    """The sparse lowering hands HiGHS the same CSC matrix as the dense
    one did, so every outcome is bit-identical, errors included."""

    def test_d26_media_placement_lps(self, monkeypatch):
        from repro.bench.registry import get_benchmark
        from repro.core.config import SynthesisConfig
        from repro.core.pipeline import FlowContext, run_synthesis

        programs = []
        solve = LinearProgram.solve

        def record(lp):
            programs.append(lp)
            return solve(lp)

        monkeypatch.setattr(LinearProgram, "solve", record)
        bench = get_benchmark("d26_media")
        run_synthesis(FlowContext.build(
            bench.core_spec_3d, bench.comm_spec, None, SynthesisConfig()
        ), jobs=1)
        monkeypatch.setattr(LinearProgram, "solve", solve)
        assert len(programs) > 10
        for lp in programs:
            _assert_lowerings_agree(lp)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_random_mixed_sense_lps(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        lp = LinearProgram()
        bound = st.one_of(st.none(), st.integers(min_value=-5, max_value=5))
        xs = []
        for i in range(n):
            low, high = data.draw(bound), data.draw(bound)
            if low is not None and high is not None and low > high:
                low, high = high, low
            xs.append(lp.add_variable(f"x{i}", low=low, high=high))
        coeff = st.one_of(
            st.integers(min_value=-3, max_value=3),
            st.floats(min_value=-4.0, max_value=4.0),
        )
        # Zero coefficients are dropped, so some rows end up all-zero.
        for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
            row = {
                x: data.draw(coeff)
                for x in data.draw(st.lists(st.sampled_from(xs), unique=True))
            }
            sense = data.draw(st.sampled_from(["<=", ">=", "=="]))
            rhs = data.draw(st.integers(min_value=-10, max_value=10))
            lp.add_constraint(row, sense, float(rhs))
        lp.set_objective({x: data.draw(coeff) for x in xs})
        _assert_lowerings_agree(lp)

    def test_no_rows(self):
        lp = LinearProgram()
        x = lp.add_variable("x", low=1.0, high=3.0)
        lp.set_objective({x: 2.0})
        assert _assert_lowerings_agree(lp).values == [1.0]

    def test_eq_only(self):
        lp = LinearProgram()
        x, y = lp.add_variable("x"), lp.add_variable("y")
        lp.add_constraint({x: 1.0, y: 2.0}, "==", 4.0)
        lp.add_constraint({x: 1.0, y: -1.0}, "==", 1.0)
        lp.set_objective({x: 1.0})
        assert _assert_lowerings_agree(lp).values == pytest.approx([2.0, 1.0])

    def test_infeasible_all_zero_row(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.add_constraint({x: 0.0}, ">=", 1.0)
        lp.set_objective({x: 1.0})
        error, _message = _assert_lowerings_agree(lp)
        assert error is InfeasibleLPError

    def test_unbounded(self):
        lp = LinearProgram()
        x, y = lp.add_variable("x", low=None), lp.add_variable("y")
        lp.add_constraint({x: 1.0, y: 1.0}, "<=", 1.0)
        lp.set_objective({x: 1.0})
        error, _message = _assert_lowerings_agree(lp)
        assert error is UnboundedLPError


class TestBulkConstruction:
    """``add_variables`` / ``add_rows`` build the same program as the
    one-at-a-time calls, and lower the same way."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_blocks_match_single_rows(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        bound = st.one_of(st.none(), st.integers(min_value=-5, max_value=5))
        coeff = st.one_of(
            st.integers(min_value=-3, max_value=3).map(float),
            st.floats(min_value=-4.0, max_value=4.0),
        )
        single, bulk = LinearProgram(), LinearProgram()
        xs = []
        for i in range(n):
            low, high = data.draw(bound), data.draw(bound)
            if low is not None and high is not None and low > high:
                low, high = high, low
            cost = data.draw(coeff)
            x = single.add_variable(f"x{i}", low=low, high=high)
            single.add_objective_term(x, cost)
            xs.append(x)
            assert bulk.add_variables(1, low=low, high=high, cost=[cost]) \
                == range(i, i + 1)
        # Rows in runs of one sense; each run is one add_rows block.
        for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
            sense = data.draw(st.sampled_from(["<=", ">=", "=="]))
            rows, cols, vals, rhs = [], [], [], []
            for r in range(data.draw(st.integers(min_value=1, max_value=3))):
                picked = data.draw(st.lists(st.sampled_from(xs), unique=True))
                row = {x: data.draw(coeff) for x in picked}
                rhs.append(float(data.draw(st.integers(-10, 10))))
                single.add_constraint(row, sense, rhs[-1])
                for x, c in row.items():
                    if c:  # add_constraint drops zeros; add_rows keeps them
                        rows.append(r)
                        cols.append(x.index)
                        vals.append(c)
            bulk.add_rows(rows, cols, vals, sense, rhs)
        assert bulk.num_constraints == single.num_constraints
        assert bulk.as_arrays() == single.as_arrays()
        assert _outcome(LinearProgram.solve, bulk) == _outcome(
            LinearProgram.solve, single)
        _assert_lowerings_agree(bulk)

    def test_duplicate_entries_summed(self):
        lp = LinearProgram()
        lp.add_variables(2, high=10.0, cost=[-1.0, -1.0])
        lp.add_rows([0, 0, 0], [0, 1, 0], [1.0, 1.0, 1.0], "<=", [6.0])
        _c, rows, _bounds = lp.as_arrays()
        assert rows == [({0: 2.0, 1: 1.0}, "<=", 6.0)]
        sol = _assert_lowerings_agree(lp)
        assert sol.objective == pytest.approx(-6.0)

    @pytest.mark.parametrize("args, match", [
        (([0], [0], [1.0], "<", [1.0]), "sense"),
        (([0, 0], [0], [1.0], "<=", [1.0]), "rows"),
        (([1], [0], [1.0], "<=", [1.0]), "row index"),
        (([0], [2], [1.0], "<=", [1.0]), "column"),
        (([0], [-1], [1.0], "<=", [1.0]), "column"),
        (([[0]], [[0]], [[1.0]], "<=", [1.0]), "one-dimensional"),
    ])
    def test_bad_rows_rejected(self, args, match):
        lp = LinearProgram()
        lp.add_variables(2)
        with pytest.raises(LPError, match=match):
            lp.add_rows(*args)
        assert lp.num_constraints == 0

    def test_bad_variables_rejected(self):
        lp = LinearProgram()
        with pytest.raises(LPError):
            lp.add_variables(2, low=3.0, high=1.0)
        with pytest.raises(LPError):
            lp.add_variables(2, cost=[1.0])
        with pytest.raises(LPError):
            lp.add_variables(-1)
        assert lp.num_variables == 0

    def test_bulk_variables_have_no_handle(self):
        lp = LinearProgram()
        lp.add_variables(1)
        forged = Variable(index=0, name="v0")
        with pytest.raises(LPError):
            lp.add_constraint({forged: 1.0}, "<=", 1.0)
