"""Simplex and branch-and-bound checks against scipy as an independent oracle."""

import contextlib
import logging
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog, milp
from scipy.optimize import Bounds, LinearConstraint

from dpmeter import procurement
from dpmeter.milp import SimplexSolver, check_feasibility, solve_lp, solve_milp
from dpmeter.milp import simplex
from dpmeter.milp.model import INF
from dpmeter.milp.simplex import _AT_LOWER, _AT_UPPER, _BASIC, _FOLD_EVERY, _FREE, _OPT_TOL
from dpmeter.procurement import _cell_model, _reduce, read_instance

from helpers import MipBuilder, fixes_solve_milp, loop_basis_matrix, random_instance

C11 = Path(__file__).parent / "data" / "c11_hhs_dlcsys_seed5.json"

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

    def test_prices_by_reduced_cost_per_column_length(self, caplog):
        # x has the larger |d_j| (2 > 1) but a long column, w = 1 + 10² + 10²;
        # y has the larger d_j² / w_j (1/2 > 4/201): y enters first
        b = MipBuilder()
        x = b.add_col("x", 0, 10, obj=-2.0)
        y = b.add_col("y", 0, 10, obj=-1.0)
        b.add_row("r0", {x: 10.0, y: 1.0}, -np.inf, 20.0)
        b.add_row("r1", {x: 10.0}, -np.inf, 15.0)
        lp = b.build()
        np.testing.assert_array_equal(SimplexSolver(lp).weights, [201.0, 2.0, 2.0, 2.0])
        with caplog.at_level(logging.DEBUG, logger="dpmeter.milp.simplex"):
            res = solve_lp(lp)
        assert caplog.records[0].getMessage().startswith(f"it=0 phase1=False j={y} ")
        assert res.status == "optimal"
        assert res.objective == pytest.approx(scipy_solve(lp).fun, rel=1e-12)
        assert res.objective == pytest.approx(-12.0)

    def test_zero_row_lp(self):
        # every column rests at the bound its cost points to
        b = MipBuilder()
        b.add_col("x", 0, 10, obj=-1.0)
        b.add_col("y", -3, 4, obj=2.0)
        b.add_col("w", 1, 5, obj=0.0)
        b.add_col("f", -np.inf, np.inf, obj=0.0)
        lp = b.build()
        assert lp.n_rows == 0
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert res.objective == -16.0
        np.testing.assert_array_equal(res.x[:2], [10.0, -3.0])
        assert check_feasibility(lp, res.x) == 0.0

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


def singular_basis_solver():
    """Solver and basis whose structural kernel is exactly singular.

    y2's column is twice y's and row x_cap is empty under this basis, and
    the basic slack of row ``sum`` leaves the kernel rows x_cap and mix.
    """
    b = MipBuilder()
    x = b.add_col("x", 0, 4, obj=-1.0)
    y = b.add_col("y", 0, 3, obj=-2.0)
    y2 = b.add_col("y2", -1, 2, obj=-1.0)
    b.add_row("x_cap", {x: 1.0}, -np.inf, 3.0)
    b.add_row("mix", {x: 1.0, y: 2.0, y2: 4.0}, -np.inf, 6.0)
    b.add_row("sum", {x: 1.0, y: 1.0, y2: 2.0}, 1.0, 5.0)
    lp = b.build()
    solver = SimplexSolver(lp)
    basis = np.array([y, y2, lp.n_cols + 2])
    _, vstat = solver.snapshot()
    vstat[[y, y2, lp.n_cols + 2]] = _BASIC
    vstat[[lp.n_cols, lp.n_cols + 1]] = _AT_UPPER
    return lp, solver, basis, vstat


class TestBasisRepair:
    def test_singular_basis_is_repaired(self):
        lp, solver, basis, vstat = singular_basis_solver()
        # a singular refactorization must repair the basis, not raise
        solver.load_state(basis, vstat)
        assert np.linalg.matrix_rank(solver._basis_matrix()) == lp.n_rows
        assert np.count_nonzero(solver.vstat == _BASIC) == lp.n_rows
        res = solver.solve()
        ref = scipy_solve(lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(ref.fun, abs=1e-9)
        assert check_feasibility(lp, res.x) <= 1e-9

    def test_singular_start_basis_is_repaired(self, monkeypatch):
        # a start basis with a dependent column is repaired at install and
        # the solve still reaches the all-slack start's optimum
        lp, _, basis, _ = singular_basis_solver()
        repairs, repair = [], SimplexSolver._repair_basis

        def recorded(self, B):
            repairs.append(self.basis.copy())
            repair(self, B)

        monkeypatch.setattr(SimplexSolver, "_repair_basis", recorded)
        solver = SimplexSolver(lp, basis)
        assert len(repairs) == 1 and np.array_equal(repairs[0], basis)
        assert not np.array_equal(solver.basis, basis)
        assert np.linalg.matrix_rank(solver._basis_matrix()) == lp.n_rows
        assert np.count_nonzero(solver.vstat == _BASIC) == lp.n_rows
        res, cold = solver.solve(), solve_lp(lp)
        assert res.status == cold.status == "optimal"
        assert res.objective == pytest.approx(cold.objective, abs=1e-9)
        assert check_feasibility(lp, res.x) <= 1e-9
        milp_res = solve_milp(lp, basis=basis)
        assert milp_res.objective == pytest.approx(cold.objective, abs=1e-9)


def assert_kernel_inverse(solver):
    """The gathered basis equals the loop-built one, and the kernel inverse
    equals its dense inverse."""
    B = loop_basis_matrix(solver)
    assert solver._basis_matrix().tobytes() == B.tobytes()
    binv = solver._kernel_inverse(B)
    ref = np.linalg.inv(B)
    assert np.abs(binv - ref).max() <= 1e-11 * max(1.0, np.abs(ref).max())
    assert np.abs(B @ binv - np.eye(solver.m)).max() <= 1e-10


def mixed_states(lp, rng, n_fixes=4):
    """Bases a solve passes through: the LP optimum, then one after each of
    ``n_fixes`` random fixes of integer columns (as branching makes)."""
    solver = SimplexSolver(lp)
    solver.solve()
    states = [solver.snapshot()]
    for c in rng.choice(lp.integer_columns(), size=n_fixes, replace=False):
        v = float(rng.integers(2))
        solver.set_col_bounds(int(c), v, v)
        if solver.solve().status != "optimal":
            break
        states.append(solver.snapshot())
    return solver, states


class TestKernelInverse:
    """A refactorization inverts only the basis's structural kernel; it
    must agree with ``np.linalg.inv`` of the loop-built basis."""

    def test_all_slack_basis(self):
        lp = random_lp(np.random.default_rng(3), n_cols=5, n_rows=6)
        solver = SimplexSolver(lp)
        solver.load_state(*solver.snapshot())
        assert_kernel_inverse(solver)
        assert np.array_equal(solver.binv, -np.eye(lp.n_rows))

    def test_all_structural_basis(self):
        rng = np.random.default_rng(4)
        m = 6
        b = MipBuilder()
        for j in range(m + 2):
            b.add_col(f"x{j}", -1.0, 1.0, obj=float(rng.normal()))
        for i in range(m):
            b.add_row(f"r{i}", {j: float(rng.normal()) for j in range(m + 2)}, -1.0, 1.0)
        lp = b.build()
        solver = SimplexSolver(lp)
        basis, vstat = solver.snapshot()
        vstat[basis] = 0
        basis = np.arange(m)
        vstat[basis] = _BASIC
        solver.load_state(basis, vstat)
        assert_kernel_inverse(solver)
        assert solver.solve().status == "optimal"

    def test_mixed_bases_from_solver_states(self):
        rng = np.random.default_rng(5)
        models = [_cell_model(inst, *_reduce(inst)[:2])[0] for inst in (
            random_instance(rng, T=6, S=4, B=3, F=3),
            random_instance(rng, T=12, S=3, B=4, F=2),
            read_instance(C11),
        )]
        n_mixed = 0
        for lp in models:
            solver, states = mixed_states(lp, rng)
            for basis, vstat in states:
                solver.load_state(basis, vstat)
                assert solver.basis.tobytes() == basis.tobytes()  # nothing repaired
                assert_kernel_inverse(solver)
                k = np.count_nonzero(basis < lp.n_cols)
                n_mixed += 0 < k < lp.n_rows
        assert n_mixed >= 10

    def test_singular_kernel_is_repaired(self):
        lp, solver, basis, vstat = singular_basis_solver()
        solver.basis, solver.vstat = basis.copy(), vstat.copy()
        with pytest.raises(np.linalg.LinAlgError):
            solver._kernel_inverse(loop_basis_matrix(solver))
        solver.load_state(basis, vstat)
        assert solver.basis.tobytes() != basis.tobytes()
        assert_kernel_inverse(solver)

    def test_dense_copy_gather_matches_loop_basis(self):
        # a refactorization gathers K and C from the dense copy of A; the
        # inverse equals the one from the loop-built basis bit for bit, on
        # solver states and on a basis that needs repair
        rng = np.random.default_rng(5)
        models = [_cell_model(inst, *_reduce(inst)[:2])[0] for inst in (
            random_instance(rng, T=6, S=4, B=3, F=3),
            random_instance(rng, T=12, S=3, B=4, F=2),
            read_instance(C11),
        )]
        def assert_gathered(solver):
            gathered = solver._kernel_inverse()
            assert gathered.tobytes() == solver.binv.tobytes()  # what load_state installed
            assert gathered.tobytes() == solver._kernel_inverse(loop_basis_matrix(solver)).tobytes()

        for lp in models:
            solver, states = mixed_states(lp, rng)
            for state in states:
                solver.load_state(*state)
                assert_gathered(solver)
        _, solver, basis, vstat = singular_basis_solver()
        solver.load_state(basis, vstat)
        assert solver.basis.tobytes() != basis.tobytes()  # repaired
        assert_gathered(solver)


def assert_live_inverse(solver):
    """The inverse the solver carries, low-rank updates folded in, inverts
    the loop-built basis."""
    B = loop_basis_matrix(solver)
    assert np.abs(solver.binv @ B - np.eye(solver.m)).max() <= 1e-9


class TestLowRankInverse:
    """Between refactorizations the inverse is the last factorization less
    a low-rank update, folded in every ``_FOLD_EVERY`` pivots and at exit."""

    def test_live_inverse_through_folds_and_after_load_state(self):
        inst = read_instance(C11)
        lp = _cell_model(inst, *_reduce(inst)[:2])[0]
        solver = SimplexSolver(lp)  # the all-slack start makes the root long
        assert solver.solve().status == "optimal"
        # no refactorization since the start: every pivot went through the update
        assert solver.refactorizations == 1
        assert solver._pivots_since_refactor > 2 * _FOLD_EVERY
        assert solver._pivots_since_refactor % _FOLD_EVERY  # exit folds a partial update
        assert_live_inverse(solver)
        root = solver.snapshot()
        # a branch goes on from the live inverse, and a far sibling reloads
        for c in lp.integer_columns()[:3]:
            solver.set_col_bounds(c, 1.0, 1.0)
            solver.solve()
            assert_live_inverse(solver)
        solver.set_col_bounds(lp.integer_columns(), 0.0, 1.0)
        solver.load_state(*root)
        assert_kernel_inverse(solver)
        res = solver.solve()
        assert res.status == "optimal" and res.iterations == 0
        assert_live_inverse(solver)


def loop_dense(solver):
    """``A`` as a dense matrix, built column by column."""
    A = np.zeros((solver.m, solver.n))
    for j in range(solver.n):
        rows, vals = solver.A.column(j)
        A[rows, j] = vals
    return A


def masked_rule_entering(solver):
    """(entering column, direction) by the per-status mask rule: among the
    nonbasic columns that can move, those at a lower bound with d_j < 0, at
    an upper bound with d_j > 0 and free with d_j ≠ 0, the largest
    d_j² / w_j enters; prices from the loop-built basis."""
    solver._recompute_x()
    A = loop_dense(solver)
    binv = np.linalg.inv(loop_basis_matrix(solver))
    xB, lbB, ubB = (v[solver.basis] for v in (solver.x, solver.lb, solver.ub))
    sigma = np.where(xB < lbB - 1e-9, -1.0, np.where(xB > ubB + 1e-9, 1.0, 0.0))
    if sigma.any():
        y = sigma @ binv
        d = -np.concatenate([A.T @ y, -y])
    else:
        y = solver.cost[solver.basis] @ binv
        d = solver.cost - np.concatenate([A.T @ y, -y])
    vstat = solver.vstat
    improving = (vstat != _BASIC) & (solver.ub - solver.lb > 0) & (
        ((vstat == _AT_LOWER) & (d < -1e-9))
        | ((vstat == _AT_UPPER) & (d > 1e-9))
        | ((vstat == _FREE) & (np.abs(d) > 1e-9))
    )
    cand = np.flatnonzero(improving)
    j = int(cand[np.argmax(d[cand] ** 2 / solver.weights[cand])])
    return j, -1.0 if vstat[j] == _AT_UPPER or (vstat[j] == _FREE and d[j] > 0) else 1.0


def first_pivot(solver, caplog):
    """(entering column, direction) of the first iteration, from its DEBUG line."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="dpmeter.milp.simplex"):
        solver.solve()
    fields = dict(f.split("=") for f in caplog.records[0].getMessage().split())
    return int(fields["j"]), float(fields["dir"])


class TestDirectionPricing:
    """Pricing reads each column's direction from one array: +1 at a
    movable lower bound, -1 at a movable upper one, 0 if basic or fixed,
    with free columns apart.  It must pick what the per-status masks did."""

    def hand_made(self, x1_status):
        # with all slacks basic, d = c: fixed x2 and x4 (at its upper bound,
        # d < 0) would score highest, but neither may enter
        b = MipBuilder()
        b.add_col("x0", 0, 10, obj=-1.0)
        b.add_col("x1", 0, 4, obj=5.0)
        b.add_col("x2", 2, 2, obj=-100.0)
        b.add_col("x3", -np.inf, np.inf, obj=2.0)
        b.add_col("x4", 0, 1, obj=-50.0)
        b.add_row("r0", {0: 1.0, 1: 1.0, 3: 1.0}, -20.0, 20.0)
        b.add_row("r1", {2: 1.0, 3: 1.0, 4: 1.0}, -20.0, 20.0)
        solver = SimplexSolver(b.build())
        basis, vstat = solver.snapshot()
        vstat[[1, 4]] = [x1_status, _AT_UPPER]
        solver.load_state(basis, vstat)
        return solver

    @pytest.mark.parametrize("x1_status, picked", [(_AT_UPPER, (1, -1.0)), (_AT_LOWER, (3, -1.0))])
    def test_hand_made_lp(self, caplog, x1_status, picked):
        # at its upper bound x1 (d = 5, w = 2) enters downwards; at its lower
        # bound it cannot improve, and free x3 (d = 2, w = 3) enters downwards
        solver = self.hand_made(x1_status)
        assert solver.vstat[3] == _FREE
        assert masked_rule_entering(solver) == picked
        assert first_pivot(solver, caplog) == picked

    def test_random_statuses(self, caplog):
        rng = np.random.default_rng(17)
        n_checked = 0
        for _ in range(40):
            lp = random_lp(rng)
            solver = SimplexSolver(lp)
            basis, vstat = solver.snapshot()
            up = np.flatnonzero(np.isfinite(solver.ub[: lp.n_cols]) & (rng.random(lp.n_cols) < 0.5))
            vstat[up] = _AT_UPPER
            solver.load_state(basis, vstat)
            try:
                expected = masked_rule_entering(solver)
            except ValueError:  # optimal at the start: no column enters
                continue
            assert first_pivot(solver, caplog) == expected
            n_checked += 1
        assert n_checked >= 20


def c11_cell_model():
    inst = read_instance(C11)
    return _cell_model(inst, *_reduce(inst)[:2])[0]


def loop_reduced_costs(solver, A):
    """Phase-2 reduced costs ``c − [A | −I]ᵀ y`` for the prices
    ``y = c_B B⁻¹`` of the loop-built basis."""
    y = np.linalg.solve(loop_basis_matrix(solver).T, solver.cost[solver.basis])
    return solver.cost - np.concatenate([A.T @ y, -y])


def improving_columns(solver, d):
    """Nonbasic columns whose step points downhill under reduced costs ``d``."""
    vstat = solver.vstat
    return np.flatnonzero((solver.ub - solver.lb > 0) & (
        ((vstat == _AT_LOWER) & (d < -_OPT_TOL))
        | ((vstat == _AT_UPPER) & (d > _OPT_TOL))
        | ((vstat == _FREE) & (np.abs(d) > _OPT_TOL))
    ))


@contextlib.contextmanager
def on_pivot(fn):
    """Route the simplex's DEBUG pivot lines, logged after the ratio test and
    before the pivot, to ``fn(record)``."""
    logger = logging.getLogger("dpmeter.milp.simplex")
    handler = logging.Handler()
    handler.emit = fn
    level = logger.level
    logger.setLevel(logging.DEBUG)
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


class TestCarriedPrices:
    """Phase 2 carries the reduced costs from pivot to pivot through the
    pivot row, and prices afresh at the start, in phase 1, after a fold or
    a refactorization and before it returns optimal."""

    def test_carried_prices_track_fresh_ones(self, monkeypatch):
        # a fold every 16 pivots and a refactorization every 40 put both
        # inside the phase 2 of the all-slack start, about 70 pivots long
        monkeypatch.setattr(simplex, "_FOLD_EVERY", 16)
        monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 40)
        lp = c11_cell_model()
        solver = SimplexSolver(lp)
        A = loop_dense(solver)
        errors, states = [], []

        def check(record):
            if "phase1=False" in record.getMessage():
                ref = loop_reduced_costs(solver, A)
                errors.append(np.abs(solver.d - ref).max() / max(1.0, np.abs(ref).max()))
                states.append((solver.refactorizations, solver._pivots_since_refactor))

        with on_pivot(check):
            res = solver.solve()
        assert res.status == "optimal"
        assert res.objective == pytest.approx(scipy_solve(lp).fun + lp.obj_offset, rel=1e-9)
        assert max(errors) <= 1e-9
        assert len(errors) >= 50
        assert max(p for _, p in states) > 16  # priced across a fold
        assert len({r for r, _ in states}) >= 2  # and across a refactorization

    def test_optimal_only_on_fresh_prices(self, monkeypatch):
        # the last event before an optimal return is a pricing from scratch
        # (of the phase-2 costs), and it shows no improving column
        events = []
        price = SimplexSolver._price

        def recorded(self, *args):
            price(self, *args)
            events.append(self.d.copy())

        monkeypatch.setattr(SimplexSolver, "_price", recorded)
        rng = np.random.default_rng(23)
        lps = [c11_cell_model()] + [random_lp(rng) for _ in range(60)]
        n_optimal = 0
        with on_pivot(lambda record: events.append(None)):
            for lp in lps:
                solver = SimplexSolver(lp)
                A = loop_dense(solver)
                lb, ub = solver.lb[: solver.n], solver.ub[: solver.n]
                boxed = np.flatnonzero(np.isfinite(lb) & (ub > lb))[:3]
                for fix in [None, *boxed]:  # the root, then a few child solves
                    if fix is not None:
                        solver.set_col_bounds(fix, solver.lb[fix], solver.lb[fix])
                    events.clear()
                    res = solver.solve()
                    if res.status != "optimal":
                        break
                    d = events[-1]
                    assert d is not None  # no pivot after the last pricing
                    assert improving_columns(solver, d).size == 0
                    ref = loop_reduced_costs(solver, A)
                    assert np.abs(d - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())
                    n_optimal += 1
        assert n_optimal >= 40


class TestLimits:
    """The iteration and node caps end a solve with a status, not an error."""

    def test_lp_iteration_cap_returns_status(self, monkeypatch):
        monkeypatch.setattr(simplex, "_ITER_CAP_BASE", 5)
        monkeypatch.setattr(simplex, "_ITER_CAP_PER_DIM", 0)
        lp = c11_cell_model()
        res = SimplexSolver(lp).solve()
        assert res.status == "iteration_limit"
        assert res.iterations == 6 and res.objective == INF
        milp_res = solve_milp(lp)
        assert milp_res.status == "iteration_limit" and milp_res.n_nodes == 1
        assert milp_res.x is None and milp_res.objective == milp_res.gap == INF

    def test_node_cap_returns_status(self):
        b = MipBuilder()
        vals, wts = [6, 5, 4, 3], [4, 3, 2, 2]
        cols = [b.add_col(f"z{i}", 0, 1, obj=-vals[i], integer=True) for i in range(4)]
        b.add_row("w", {c: float(w) for c, w in zip(cols, wts)}, -np.inf, 6.0)
        lp = b.build()
        full = solve_milp(lp)
        assert full.status == "optimal" and full.objective == -10.0 and full.n_nodes > 3
        res = solve_milp(lp, max_nodes=1)
        assert res.status == "node_limit" and res.n_nodes == 1
        assert res.x is None and res.objective == res.gap == INF
        # the incumbent found so far stays, with the gap to the open nodes
        res = solve_milp(lp, max_nodes=3)
        assert res.status == "node_limit" and res.n_nodes == 3
        assert res.objective == -9.0 and check_feasibility(lp, res.x) == 0.0
        assert res.objective - full.objective <= res.gap < INF


class TestCheckFeasibility:
    def lp(self):
        b = MipBuilder()
        x = b.add_col("x", 0, 4, obj=1.0)
        y = b.add_col("y", 0, 3, obj=1.0, integer=True)
        b.add_row("cap", {x: 1.0, y: 1.0}, -np.inf, 5.0)
        return b.build()

    def test_feasible_point(self):
        assert check_feasibility(self.lp(), np.array([2.5, 2.0])) == 0.0

    def test_finite_infeasible_point(self):
        lp = self.lp()
        assert check_feasibility(lp, np.array([4.5, 2.0])) == 1.5  # the row, by 1.5
        assert check_feasibility(lp, np.array([-0.5, 1.0])) == 0.5  # x's lower bound
        assert check_feasibility(lp, np.array([1.0, 1.25])) == 0.25  # y's integrality

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point(self, bad):
        lp = self.lp()
        assert check_feasibility(lp, np.array([bad, 1.0])) == INF
        assert check_feasibility(lp, np.array([1.0, bad])) == INF

    def test_non_finite_row_activity(self):
        b = MipBuilder()
        cols = [b.add_col(f"x{i}", -np.inf, np.inf) for i in range(2)]
        b.add_row("sum", {c: 1e308 for c in cols}, -np.inf, np.inf)
        assert check_feasibility(b.build(), np.array([1.5, 1.5])) == INF


def random_mip(rng, general=True):
    lp = random_lp(rng, n_cols=int(rng.integers(2, 7)), n_rows=int(rng.integers(1, 6)))
    # make a few columns binary with sane bounds
    n_bin = int(rng.integers(1, min(lp.n_cols, 4) + 1))
    for j in rng.choice(lp.n_cols, size=n_bin, replace=False):
        lp.col_lower[j] = 0.0
        lp.col_upper[j] = 1.0
        lp.is_integer[j] = True
    lp.col_lower[~np.isfinite(lp.col_lower)] = -10.0
    lp.col_upper[~np.isfinite(lp.col_upper)] = 10.0
    if general:
        # some continuous columns become general integers; about half of
        # those keep fractional bounds
        for j in np.flatnonzero(~lp.is_integer & (rng.random(lp.n_cols) < 0.4)):
            lp.is_integer[j] = True
            if rng.random() < 0.5:
                lp.col_lower[j] = np.floor(lp.col_lower[j])
                lp.col_upper[j] = np.ceil(lp.col_upper[j])
    return lp


def random_general_mip(rng):
    """Four general-integer columns with integer bounds under 2-4 rows."""
    b = MipBuilder()
    for j in range(4):
        lo = float(rng.integers(-3, 1))
        b.add_col(f"z{j}", lo, lo + float(rng.integers(2, 9)), obj=float(rng.normal()),
                  integer=True)
    for i in range(int(rng.integers(2, 5))):
        cols = rng.choice(4, size=int(rng.integers(2, 5)), replace=False)
        b.add_row(f"r{i}", {int(c): float(rng.normal()) for c in cols}, -np.inf,
                  float(rng.normal(scale=2)))
    return b.build()


def highs_milp(lp):
    A = np.zeros((lp.n_rows, lp.n_cols))
    for i in range(lp.n_rows):
        cols, vals = lp.row_matrix.row(i)
        A[i, cols] = vals
    return milp(
        c=lp.obj,
        constraints=LinearConstraint(A, lp.row_lower, lp.row_upper),
        integrality=lp.is_integer.astype(int),
        bounds=Bounds(lp.col_lower, lp.col_upper),
    )


def assert_same_result(got, want):
    """Two ``MilpResult``s equal bit for bit."""
    assert got.status == want.status
    for name in ("objective", "gap"):
        a, b = np.float64(getattr(got, name)), np.float64(getattr(want, name))
        assert a.tobytes() == b.tobytes(), name
    assert (got.x is None) == (want.x is None)
    if got.x is not None:
        assert got.x.tobytes() == want.x.tobytes()
    for name in (
        "n_nodes", "lp_iterations", "refactorizations", "infeasible_row",
        "phase1_iterations", "bland_switches", "root_iterations",
    ):
        assert getattr(got, name) == getattr(want, name), name


class TestBranchAndBound:
    def test_random_mips_match_highs(self):
        rng = np.random.default_rng(77)
        n_compared = 0
        for _ in range(40):
            lp = random_mip(rng)
            ours = solve_milp(lp, gap_tol=1e-8)
            ref = highs_milp(lp)
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

    def test_zero_row_milp(self):
        # with no rows every column rests at a bound, so the root is integral
        b = MipBuilder()
        for i in range(2):
            b.add_col(f"z{i}", -2, 3, obj=1.0 - 2 * i, integer=True)
        b.add_col("x", -1, 1, obj=0.5)
        lp = b.build()
        assert lp.n_rows == 0
        res = solve_milp(lp)
        assert res.status == "optimal"
        assert res.objective == -5.5
        np.testing.assert_array_equal(res.x, [-2.0, 3.0, -1.0])
        assert res.n_nodes == 1

    def test_counters_cover_every_node(self, monkeypatch):
        # each popped sibling refactorizes in load_state, so a search with
        # pops counts more refactorizations than its root solve alone
        iterations, phase1, bland, pops = [], [], [], []
        solve, load_state = SimplexSolver.solve, SimplexSolver.load_state

        def counted_solve(self, *args, **kwargs):
            res = solve(self, *args, **kwargs)
            iterations.append(res.iterations)
            phase1.append(res.phase1_iterations)
            bland.append(res.bland)
            return res

        def counted_load_state(self, *args):
            pops.append(1)
            load_state(self, *args)

        monkeypatch.setattr(SimplexSolver, "solve", counted_solve)
        monkeypatch.setattr(SimplexSolver, "load_state", counted_load_state)
        rng = np.random.default_rng(77)
        n_popped = 0
        for _ in range(40):
            lp = random_mip(rng)
            for counts in (iterations, phase1, bland, pops):
                counts.clear()
            res = solve_milp(lp, gap_tol=1e-8)
            assert res.n_nodes == len(iterations)
            assert res.lp_iterations == sum(iterations)
            assert res.root_iterations == iterations[0]
            assert res.phase1_iterations == sum(phase1) <= res.lp_iterations
            assert res.bland_switches == sum(bland)
            assert res.refactorizations >= len(pops)
            if pops:
                root = SimplexSolver(lp)
                root.solve()
                assert res.refactorizations > root.refactorizations
                n_popped += 1
        assert n_popped >= 2

    @pytest.mark.parametrize("tol", [float("nan"), -1e-6, float("inf")])
    def test_bad_gap_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="gap tolerance must be finite and >= 0"):
            solve_milp(random_mip(np.random.default_rng(5)), gap_tol=tol)

    def test_gap_is_reported(self):
        rng = np.random.default_rng(5)
        lp = random_mip(rng)
        res = solve_milp(lp, gap_tol=1e-6)
        if res.status == "optimal":
            assert res.gap <= 1e-6

    def test_fractional_integer_bounds_round_inward(self):
        # the relaxation's optimum is (2.5, 2.5); the integer box is [0, 2]²
        b = MipBuilder()
        for i in range(2):
            b.add_col(f"z{i}", 0, 2.5, obj=-1.0, integer=True)
        b.add_row("cap", {0: 1.0, 1: 1.0}, -np.inf, 6.0)
        res = solve_milp(b.build(), max_nodes=30)
        assert res.status == "optimal"
        assert res.objective == -4.0
        np.testing.assert_array_equal(res.x, [2.0, 2.0])
        assert res.n_nodes == 1

    def test_integer_column_without_integer_point(self):
        b = MipBuilder()
        b.add_col("z", 0.2, 0.8, obj=1.0, integer=True)
        b.add_col("x", 0, 1, obj=1.0)
        b.add_row("r", {0: 1.0, 1: 1.0}, 0.0, 2.0)
        res = solve_milp(b.build(), max_nodes=30)
        assert res.status == "infeasible"
        assert res.n_nodes == 0

    def test_node_boxes_nest_or_are_disjoint(self, monkeypatch):
        # each branch splits its own node's box, so two nodes' integer boxes
        # are nested (one descends from the other) or disjoint
        boxes, int_cols = [], []
        solve = SimplexSolver.solve

        def recorded_solve(self):
            boxes.append((self.lb[int_cols[-1]], self.ub[int_cols[-1]]))
            return solve(self)

        monkeypatch.setattr(SimplexSolver, "solve", recorded_solve)
        rng = np.random.default_rng(23)
        n_branched = 0
        for _ in range(100):
            lp = random_general_mip(rng)
            int_cols.append(lp.integer_columns())
            boxes.clear()
            res = solve_milp(lp, gap_tol=1e-8, max_nodes=2000)
            ref = highs_milp(lp)
            assert res.status == ("infeasible" if ref.status == 2 else "optimal")
            if ref.status != 2:
                assert res.objective == pytest.approx(ref.fun, abs=1e-6)
            lo = np.array([b[0] for b in boxes])
            hi = np.array([b[1] for b in boxes])
            for a in range(len(boxes)):
                disjoint = ((hi[a] < lo) | (hi < lo[a])).any(axis=1)
                inside = ((lo[a] <= lo) & (hi <= hi[a])).all(axis=1)
                around = ((lo <= lo[a]) & (hi[a] <= hi)).all(axis=1)
                assert (disjoint | inside | around).all()
            n_branched += len(boxes) > 1
        assert n_branched >= 50


class TestFixesParity:
    """``solve_milp`` against ``fixes_solve_milp``, the form that kept each
    node as a list of fixes: on binary models every field of the result is
    equal bit for bit."""

    def test_binary_random_mips(self):
        rng = np.random.default_rng(3)
        n_branched = 0
        for _ in range(200):
            lp = random_mip(rng, general=False)
            got = solve_milp(lp, gap_tol=1e-8)
            assert_same_result(got, fixes_solve_milp(lp, gap_tol=1e-8))
            n_branched += got.n_nodes > 1
        assert n_branched >= 15

    def test_procurement_models(self, monkeypatch):
        # procurement.solve hands both solvers its cell model
        n_nodes = []

        def both(lp, **kwargs):
            got = solve_milp(lp, **kwargs)
            assert_same_result(got, fixes_solve_milp(lp, **kwargs))
            n_nodes.append(got.n_nodes)
            return got

        monkeypatch.setattr(procurement, "solve_milp", both)
        rng = np.random.default_rng(13)
        insts = [random_instance(rng) for _ in range(12)]
        insts += [random_instance(rng, T=3, S=4, B=5, F=6)]
        # the cell model closes most small instances at the root; these
        # larger ones give the branched models the parity is about
        insts += [random_instance(rng, T=5, S=5, B=5, F=6) for _ in range(8)]
        insts += [read_instance(C11)]
        for inst in insts:
            procurement.solve(procurement.build_milp(inst))
        assert len(n_nodes) == len(insts)
        assert sum(n > 1 for n in n_nodes) >= 3
