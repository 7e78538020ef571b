"""Simplex and branch-and-bound checks against scipy as an independent oracle."""

import logging

import numpy as np
import pytest
from scipy.optimize import linprog, milp
from scipy.optimize import Bounds, LinearConstraint

from dpmeter.milp import MipBuilder, SimplexSolver, check_feasibility, solve_lp, solve_milp
from dpmeter.milp.simplex import _AT_UPPER, _BASIC

RNG_CASES = 60


def random_lp(rng, n_cols=None, n_rows=None):
    """Random bounded LP with range rows; kept small and dense-ish."""
    n = n_cols or rng.integers(2, 9)
    m = n_rows or rng.integers(1, 8)
    b = MipBuilder()
    lb = rng.uniform(-5, 0, n)
    ub = lb + rng.uniform(0.5, 8, n)
    # occasionally free or one-sided columns
    for j in range(n):
        lo, hi = lb[j], ub[j]
        kind = rng.random()
        if kind < 0.1:
            lo = -np.inf
        elif kind < 0.15:
            hi = np.inf
        b.add_col(f"x{j}", lo, hi, obj=float(rng.normal()))
    for i in range(m):
        cols = rng.choice(n, size=rng.integers(1, min(n, 4) + 1), replace=False)
        coeffs = {int(c): float(rng.normal()) for c in cols}
        mid = float(rng.normal(scale=2))
        width = float(rng.uniform(0, 4))
        kind = rng.random()
        if kind < 0.25:
            lo, hi = mid, mid  # equality
        elif kind < 0.55:
            lo, hi = -np.inf, mid
        elif kind < 0.85:
            lo, hi = mid, np.inf
        else:
            lo, hi = mid - width, mid + width
        b.add_row(f"r{i}", coeffs, lo, hi)
    return b.build()


def scipy_solve(lp):
    A = np.zeros((lp.n_rows, lp.n_cols))
    for i in range(lp.n_rows):
        cols, vals = lp.row_matrix.row(i)
        A[i, cols] = vals
    rows_ub, rhs_ub, rows_eq, rhs_eq = [], [], [], []
    for i in range(lp.n_rows):
        lo, hi = lp.row_lower[i], lp.row_upper[i]
        if lo == hi:
            rows_eq.append(A[i])
            rhs_eq.append(lo)
            continue
        if np.isfinite(hi):
            rows_ub.append(A[i])
            rhs_ub.append(hi)
        if np.isfinite(lo):
            rows_ub.append(-A[i])
            rhs_ub.append(-lo)
    return linprog(
        lp.obj,
        A_ub=np.array(rows_ub) if rows_ub else None,
        b_ub=np.array(rhs_ub) if rhs_ub else None,
        A_eq=np.array(rows_eq) if rows_eq else None,
        b_eq=np.array(rhs_eq) if rhs_eq else None,
        bounds=list(zip(lp.col_lower, lp.col_upper)),
        method="highs",
    )


class TestSimplexAgainstScipy:
    def test_random_lps_match_highs(self):
        rng = np.random.default_rng(31)
        n_compared = 0
        for _ in range(RNG_CASES):
            lp = random_lp(rng)
            ours = solve_lp(lp)
            ref = scipy_solve(lp)
            if ref.status == 2:
                assert ours.status == "infeasible"
            elif ref.status == 3:
                assert ours.status in ("unbounded", "infeasible")
            else:
                assert ours.status == "optimal", f"expected optimal, got {ours.status}"
                assert ours.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
                assert check_feasibility(lp, ours.x) <= 1e-7
                n_compared += 1
        assert n_compared >= RNG_CASES // 3

    def test_simple_known_lp(self):
        b = MipBuilder()
        x = b.add_col("x", 0, 10, obj=-1.0)
        y = b.add_col("y", 0, 10, obj=-2.0)
        b.add_row("cap", {x: 1.0, y: 1.0}, -np.inf, 6.0)
        res = solve_lp(b.build())
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-12.0 - 0.0)
        assert res.x[y] == pytest.approx(6.0)

    def test_pivots_logged_at_debug_only(self, caplog):
        b = MipBuilder()
        x = b.add_col("x", 0, 10, obj=-1.0)
        y = b.add_col("y", 0, 10, obj=-2.0)
        b.add_row("cap", {x: 1.0, y: 1.0}, -np.inf, 6.0)
        lp = b.build()
        with caplog.at_level(logging.INFO, logger="dpmeter.milp.simplex"):
            solve_lp(lp)
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="dpmeter.milp.simplex"):
            solve_lp(lp)
        assert caplog.records and caplog.records[0].getMessage().startswith("it=0 phase1=")

    def test_infeasible_lp(self):
        b = MipBuilder()
        x = b.add_col("x", 0, 1, obj=1.0)
        b.add_row("gt", {x: 1.0}, 2.0, np.inf)
        res = solve_lp(b.build())
        assert res.status == "infeasible"
        assert res.infeasible_row == 0

    def test_unbounded_lp(self):
        b = MipBuilder()
        x = b.add_col("x", 0, np.inf, obj=-1.0)
        b.add_row("r", {x: -1.0}, -np.inf, 0.0)
        res = solve_lp(b.build())
        assert res.status == "unbounded"


class TestBasisRepair:
    def test_singular_basis_is_repaired(self):
        b = MipBuilder()
        x = b.add_col("x", 0, 4, obj=-1.0)
        y = b.add_col("y", 0, 3, obj=-2.0)
        y2 = b.add_col("y2", -1, 2, obj=-1.0)
        b.add_row("x_cap", {x: 1.0}, -np.inf, 3.0)
        b.add_row("mix", {x: 1.0, y: 2.0, y2: 4.0}, -np.inf, 6.0)
        b.add_row("sum", {x: 1.0, y: 1.0, y2: 2.0}, 1.0, 5.0)
        lp = b.build()
        solver = SimplexSolver(lp)
        # y2's column is twice y's and row x_cap is empty under this basis,
        # so it is singular: the refactorization must repair it, not raise
        basis = np.array([y, y2, lp.n_cols + 2])
        _, vstat = solver.snapshot()
        vstat[[y, y2, lp.n_cols + 2]] = _BASIC
        vstat[[lp.n_cols, lp.n_cols + 1]] = _AT_UPPER
        solver.load_state(basis, vstat)
        assert np.linalg.matrix_rank(solver._basis_matrix()) == lp.n_rows
        assert np.count_nonzero(solver.vstat == _BASIC) == lp.n_rows
        res = solver.solve()
        ref = scipy_solve(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(ref.fun, abs=1e-9)
        assert check_feasibility(lp, res.x) <= 1e-9


def random_mip(rng):
    lp = random_lp(rng, n_cols=int(rng.integers(2, 7)), n_rows=int(rng.integers(1, 6)))
    # make a few columns binary with sane bounds
    n_bin = int(rng.integers(1, min(lp.n_cols, 4) + 1))
    for j in rng.choice(lp.n_cols, size=n_bin, replace=False):
        lp.col_lower[j] = 0.0
        lp.col_upper[j] = 1.0
        lp.is_integer[j] = True
    lp.col_lower[~np.isfinite(lp.col_lower)] = -10.0
    lp.col_upper[~np.isfinite(lp.col_upper)] = 10.0
    return lp


class TestBranchAndBound:
    def test_random_mips_match_highs(self):
        rng = np.random.default_rng(77)
        n_compared = 0
        for _ in range(40):
            lp = random_mip(rng)
            ours = solve_milp(lp, gap_tol=1e-8)
            A = np.zeros((lp.n_rows, lp.n_cols))
            for i in range(lp.n_rows):
                cols, vals = lp.row_matrix.row(i)
                A[i, cols] = vals
            ref = milp(
                c=lp.obj,
                constraints=LinearConstraint(A, lp.row_lower, lp.row_upper),
                integrality=lp.is_integer.astype(int),
                bounds=Bounds(lp.col_lower, lp.col_upper),
            )
            if ref.status == 2:  # infeasible
                assert ours.status == "infeasible"
            else:
                assert ours.status == "optimal"
                assert ours.objective == pytest.approx(ref.fun, abs=1e-6)
                assert check_feasibility(lp, ours.x) <= 1e-6
                n_compared += 1
        assert n_compared >= 10

    def test_knapsack(self):
        b = MipBuilder()
        vals = [6, 5, 4]
        wts = [4, 3, 2]
        cols = [b.add_col(f"z{i}", 0, 1, obj=-vals[i], integer=True) for i in range(3)]
        b.add_row("w", {c: float(w) for c, w in zip(cols, wts)}, -np.inf, 5.0)
        res = solve_milp(b.build())
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-9.0)  # items 1 and 2

    def test_gap_is_reported(self):
        rng = np.random.default_rng(5)
        lp = random_mip(rng)
        res = solve_milp(lp, gap_tol=1e-6)
        if res.status == "optimal":
            assert res.gap <= 1e-6
