"""Bounded-variable primal simplex with an explicit basis inverse.

Works on the augmented system ``[A | -I] z = 0`` where the slack of each
range row carries the row bounds.  Phase 1 drives out bound violations by
minimizing their sum (composite rule: an infeasible basic variable blocks
at the bound it is violating); phase 2 prices the true objective.

Both phases price by reduced cost per unit column length: the entering
column maximizes ``d_j² / w_j``, lowest index on ties, with the
steepest-edge weights of the all-slack basis, ``w_j = 1 + ‖a_j‖²`` for a
structural column and ``2`` for a slack (Goldfarb & Reid 1977, *Math.
Programming* 12; Forrest & Goldfarb 1992, *Math. Programming* 57).  The
weights depend only on ``A``, so they are computed once per solver and
never updated: branch and bound changes bounds, not ``A``, and updating
them (Devex, or exact steepest edge) costs a product with the pivot row
per iteration.  In the procurement cell model column norms run from 1
to about 4e4 at S = 50 scenarios (a cell's binary column holds every
scenario's cost at its lower edge), and ranking by raw ``|d_j|`` keeps
choosing short, badly scaled steps.  After a run of degenerate steps
pricing falls back to Bland's rule, so the path is deterministic.
``LpResult`` counts the iterations taken in phase 1 and says whether the
solve fell back to Bland's rule.

The reduced costs ``c − Aᵀy`` come from one dense product ``y @ A``: each
solver keeps a dense copy of ``A`` for pricing, m·n doubles (about 0.45 MB
for the largest model of the ``procure`` benchmark, 188 rows by 299
columns).  Each column carries the sign of the step that moves it off its
bound, +1 at a movable lower bound, −1 at a movable upper one and 0 if
basic or fixed, so the improving columns are ``sign · d < 0`` and the
choice is one ``argmax``; nonbasic free columns are priced apart.  The
values, bounds and costs of the basic columns are carried by basis
position from pivot to pivot and written back to the point only at exit
and at a refactorization.

The ratio test is Harris's two-pass test (Harris 1973, *Math.
Programming* 5): pass 1 finds the longest step that keeps every basic
variable within ``_FEAS_TOL`` of the bound it runs into, pass 2 lets the
row with the largest pivot among those blocking inside that step leave.
Entries below ``_PIVOT_TOL`` are round-off standing in for zeros and never
become pivots; should the basis still turn out singular at a
refactorization, the dependent columns are swapped for slacks.

Between refactorizations the inverse is kept in product form as a
low-rank update of a dense ``B0⁻¹``: ``B⁻¹ = B0⁻¹ − Uᵀ V`` (the
Sherman–Morrison–Woodbury identity; Hager 1989, *SIAM Review* 31; the
product form of the inverse goes back to Dantzig & Orchard-Hays 1954,
*Math. Tables Aids Comput.* 8).  A pivot on row p with entering column
``w = B⁻¹ a_j`` appends ``u = w − e_p`` and ``v = (row p of B⁻¹) / w_p``,
so the prices, the entering column's solve and row p each cost one or two
extra skinny products instead of a dense m × m rank-1 update per pivot.
Every ``_FOLD_EVERY`` pivots one matrix product folds the update into
``B0⁻¹``, and it is folded at exit, so between solves ``binv`` is the
dense inverse of the current basis.

A refactorization inverts only the structural kernel of the basis (Suhl &
Suhl 1990, *ORSA J. Computing* 2): each basic slack covers its own row, so
with the rows ``R_n`` no basic slack covers, the basic structural columns
``S`` and the slack-covered rows ``R_s``, the basis permutes to
``[[K, 0], [C, -I]]`` with ``K = A[R_n, S]`` and ``C = A[R_s, S]``.  Its
inverse is ``[[K⁻¹, 0], [C K⁻¹, -I]]``: O(k³ + (m − k) k²) work for k
basic structurals instead of O(m³).  The entering column's solve uses only
that column's nonzeros.

A solve starts from the basis given at construction: m column indices,
the slack of row i being ``n + i``; without one, from the all-slack basis,
whose inverse is ``-I``.  ``reset_cold`` installs either with one
refactorization, and every nonbasic column rests at a finite bound, lower
first.  A caller that knows a primal-feasible basis (a crash basis, Bixby
1992, *ORSA J. Computing* 4) skips phase 1 this way: the procurement cell
model writes one down (``procurement._cell_model``) whose CVaR columns
already sit at the VaR split of its point, so the root also skips the
pivots that would move them there.  A start basis that
is infeasible only costs phase-1 iterations, and a singular one is
repaired like any other.

State persists between calls.  Branch and bound installs a node's column
bounds with ``set_col_bounds`` and, for a node that restarts from a
snapshot, its basis with ``load_state`` (one refactorization); ``solve``
then derives the point from the bounds, the nonbasic statuses and the
basis inverse.  A node that goes on from the live basis re-solves without
refactorizing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .model import INF, LinearMip

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2
_FREE = 3

# smallest |entry| of the entering column that may serve as a pivot; the
# columns here reach 1e6 and round-off leaves ~1e-11 where a zero belongs
_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-9  # how far a basic value may lie outside its bounds
_OPT_TOL = 1e-9  # how far a reduced cost must point downhill to enter
_REFACTOR_EVERY = 400  # pivots between refactorizations of the inverse
_FOLD_EVERY = 48  # pivots held as a low-rank update before one product folds them in

_log = logging.getLogger(__name__)


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float
    x: np.ndarray  # structural column values
    iterations: int
    infeasible_row: int = -1  # row whose violation could not be removed
    phase1_iterations: int = 0  # of ``iterations``, those taken in phase 1
    bland: bool = False  # whether a degenerate run switched pricing to Bland's rule


class SimplexSolver:
    def __init__(self, lp: LinearMip, basis: np.ndarray | None = None):
        self.A = lp.row_matrix
        self.m = lp.n_rows
        self.n = lp.n_cols
        self.N = self.n + self.m
        self.lb = np.concatenate([lp.col_lower, lp.row_lower])
        self.ub = np.concatenate([lp.col_upper, lp.row_upper])
        self.cost = np.concatenate([lp.obj, np.zeros(self.m)])
        self.obj_offset = lp.obj_offset
        # frozen steepest-edge weights of the all-slack basis: 1 + ‖a_j‖²
        # for a structural column, 2 for a slack (its column is -e_i)
        sq = np.bincount(self.A.indices, weights=self.A.data**2, minlength=self.n)
        self.weights = np.concatenate([1.0 + sq, np.full(self.m, 2.0)])
        self.dense = self.A.toarray()  # pricing's copy of A: m × n doubles
        self.basis = np.empty(self.m, dtype=np.int64)
        self.vstat = np.empty(self.N, dtype=np.int8)
        self.binv = np.empty((self.m, self.m))
        self.x = np.zeros(self.N)
        self._pivots_since_refactor = 0
        self.refactorizations = 0  # kernel inversions since construction
        self.reset_cold(basis)

    # ----- state management -------------------------------------------------

    def reset_cold(self, basis: np.ndarray | None = None) -> None:
        """Install a start basis: m column indices, the slack of row i being
        ``n + i``; ``None`` is the all-slack basis.  Every nonbasic column
        rests at a finite bound, lower first.  A singular start basis is
        repaired as at any refactorization."""
        if basis is None:
            basis = self.n + np.arange(self.m)
        self.basis = np.array(basis, dtype=np.int64)
        self.vstat[:] = self._resting_status(np.arange(self.N))
        self.vstat[self.basis] = _BASIC
        self._refactorize()
        self._recompute_x()

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        return self.basis.copy(), self.vstat.copy()

    def load_state(self, basis: np.ndarray, vstat: np.ndarray) -> None:
        self.basis = basis.copy()
        self.vstat = vstat.copy()
        self._refactorize()

    def set_col_bounds(self, cols: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> None:
        """Set the bounds of structural columns ``cols`` (a branch-and-bound
        node's box); ``solve`` moves the point onto them."""
        self.lb[cols] = lower
        self.ub[cols] = upper

    def _resting_status(self, cols: np.ndarray) -> np.ndarray:
        """Nonbasic status of ``cols``: at a finite bound, lower first."""
        return np.where(
            np.isfinite(self.lb[cols]),
            _AT_LOWER,
            np.where(np.isfinite(self.ub[cols]), _AT_UPPER, _FREE),
        ).astype(np.int8)

    # ----- linear algebra helpers -------------------------------------------

    def _basis_matrix(self) -> np.ndarray:
        """The dense m × m basis, gathered from the column-major copy of ``A``."""
        B = np.zeros((self.m, self.m))
        struct = np.flatnonzero(self.basis < self.n)
        rows, pos, vals = self.A.column_entries(self.basis[struct])
        B[rows, struct[pos]] = vals
        slack = np.flatnonzero(self.basis >= self.n)
        B[self.basis[slack] - self.n, slack] = -1.0
        return B

    def _kernel_inverse(self, B: np.ndarray) -> np.ndarray:
        """``B⁻¹`` from the inverse of the structural kernel ``K`` alone.

        Rows of the result follow basis positions, columns follow rows of
        ``A``.  A singular ``K`` (hence ``B``) raises ``LinAlgError``.
        """
        slack = self.basis >= self.n
        p_s = np.flatnonzero(slack)  # positions of the basic slacks
        p_n = np.flatnonzero(~slack)  # positions of the basic structurals
        r_s = self.basis[p_s] - self.n  # the rows those slacks cover
        covered = np.zeros(self.m, dtype=bool)
        covered[r_s] = True
        r_n = np.flatnonzero(~covered)
        kinv = np.linalg.inv(B[np.ix_(r_n, p_n)])
        binv = np.zeros((self.m, self.m))
        binv[np.ix_(p_n, r_n)] = kinv
        binv[np.ix_(p_s, r_n)] = B[np.ix_(r_s, p_n)] @ kinv
        binv[p_s, r_s] = -1.0
        return binv

    def _refactorize(self) -> None:
        B = self._basis_matrix()
        try:
            self.binv = self._kernel_inverse(B)
        except np.linalg.LinAlgError:
            self._repair_basis(B)
            self.binv = self._kernel_inverse(self._basis_matrix())
        self._pivots_since_refactor = 0
        self.refactorizations += 1

    def _repair_basis(self, B: np.ndarray) -> None:
        """Swap the dependent basic columns for slacks of uncovered rows.

        Gaussian elimination with partial pivoting runs over the basis
        columns in order; a column with no pivot left above ``_PIVOT_TOL``
        (relative to its largest entry) lies in the span of those before
        it.  The rows no column pivoted on are the ones the independent
        columns leave uncovered, and their slacks complete the basis.  The
        displaced columns rest at a bound; phase 1 restores feasibility.
        """
        U = B.copy()
        free_row = np.ones(self.m, dtype=bool)
        scale = np.abs(B).max(axis=0)
        dependent = []
        for k in range(self.m):
            col = np.where(free_row, U[:, k], 0.0)
            r = int(np.argmax(np.abs(col)))
            if abs(col[r]) <= _PIVOT_TOL * scale[k]:
                dependent.append(k)
                continue
            free_row[r] = False
            U[free_row, k + 1 :] -= np.outer(col[free_row] / col[r], U[r, k + 1 :])
        dependent = np.asarray(dependent, dtype=np.int64)
        displaced = self.basis[dependent]
        self.vstat[displaced] = self._resting_status(displaced)
        self.basis[dependent] = self.n + np.flatnonzero(free_row)
        self.vstat[self.basis[dependent]] = _BASIC

    def _recompute_x(self) -> None:
        xn = self.x
        xn[self.vstat == _AT_LOWER] = self.lb[self.vstat == _AT_LOWER]
        xn[self.vstat == _AT_UPPER] = self.ub[self.vstat == _AT_UPPER]
        xn[self.vstat == _FREE] = 0.0
        tmp = xn.copy()
        tmp[self.basis] = 0.0
        rhs = self.A.dot(tmp[: self.n]) - tmp[self.n :]
        self.x[self.basis] = -self.binv @ rhs

    def _basic_state(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Values, bounds and costs of the basic columns, by basis position."""
        b = self.basis
        return self.x[b], self.lb[b], self.ub[b], self.cost[b]

    def _directions(self) -> tuple[np.ndarray, np.ndarray]:
        """Per column, the sign of the step that moves it off its bound: +1
        at a movable lower bound, -1 at a movable upper one, 0 if basic or
        fixed; and the nonbasic free columns, which may move either way."""
        movable = (self.ub - self.lb) > 0
        dirn = np.zeros(self.N)
        dirn[(self.vstat == _AT_LOWER) & movable] = 1.0
        dirn[(self.vstat == _AT_UPPER) & movable] = -1.0
        return dirn, np.flatnonzero((self.vstat == _FREE) & movable)

    # ----- main loop ---------------------------------------------------------

    def solve(self) -> LpResult:
        max_iter = 2000 + 60 * (self.m + self.n)
        self._recompute_x()
        # the basic values, bounds and costs travel from pivot to pivot;
        # ``x`` holds them only at exit and after a refactorization
        xB, lbB, ubB, cB = self._basic_state()
        dirn, free = self._directions()
        # between folds the inverse is binv − U[:k].T @ V[:k]: each pivot appends
        # u = w − e_p and v = (row p of the inverse) / w_p
        U = np.empty((_FOLD_EVERY, self.m))
        V = np.empty((_FOLD_EVERY, self.m))
        k = 0
        iters = phase1_iters = 0
        degenerate_run = 0
        bland = False
        debug = _log.isEnabledFor(logging.DEBUG)  # per-iteration diagnostics

        def result(status: str, row: int = -1) -> LpResult:
            self.x[self.basis] = xB
            if k:
                self.binv -= U[:k].T @ V[:k]
            x = self.x[: self.n].copy()
            objective = -INF if status == "unbounded" else INF
            if status == "optimal":
                objective = float(self.cost[: self.n] @ x) + self.obj_offset
            return LpResult(status, objective, x, iters, row, phase1_iters, bland)

        while True:
            if iters > max_iter:
                raise RuntimeError(f"simplex exceeded {max_iter} iterations")
            if self._pivots_since_refactor >= _REFACTOR_EVERY:
                self._refactorize()
                self._recompute_x()
                xB, lbB, ubB, cB = self._basic_state()
                dirn, free = self._directions()
                k = 0

            below = xB < lbB - _FEAS_TOL
            above = xB > ubB + _FEAS_TOL
            in_phase1 = bool(below.any() or above.any())

            # prices y = g B⁻¹ for the basic costs g (phase 1: -1 below a
            # lower bound, +1 above an upper one) and reduced costs
            # d = c − [A | −I]ᵀ y, whose slack part is y (a slack costs 0)
            if in_phase1:
                g = np.zeros(self.m)
                g[below] = -1.0
                g[above] = 1.0
                c = 0.0
            else:
                g, c = cB, self.cost[: self.n]
            y = g @ self.binv
            if k:
                y -= (U[:k] @ g) @ V[:k]
            d = np.concatenate([c - y @ self.dense, y])

            # a column improves when its step points downhill: d_j < 0 at a
            # lower bound, > 0 at an upper one, either way if free
            score = np.where(dirn * d < -_OPT_TOL, d**2 / self.weights, -1.0)
            if free.size:
                df = d[free]
                score[free] = np.where(np.abs(df) > _OPT_TOL, df**2 / self.weights[free], -1.0)
            j = int(np.argmax(score >= 0.0) if bland else np.argmax(score))
            if score[j] < 0.0:
                if in_phase1:
                    p = int(np.argmax(np.maximum(lbB - xB, xB - ubB)))
                    leaving = int(self.basis[p])
                    return result("infeasible", leaving - self.n if leaving >= self.n else -1)
                return result("optimal")
            t_dir = dirn[j] if dirn[j] else (-1.0 if d[j] > 0 else 1.0)

            # the entering column's solve B⁻¹ a_j over a_j's nonzeros only
            if j < self.n:
                rows, vals = self.A.column(j)
                w = self.binv[:, rows] @ vals
                if k:
                    w -= U[:k].T @ (V[:k, rows] @ vals)
            else:
                w = -self.binv[:, j - self.n]
                if k:
                    w += U[:k].T @ V[:k, j - self.n]
            rate = -t_dir * w

            # ratio test, pass 1: a basic blocks at the first bound it meets,
            # rising at its upper and falling at its lower one; a phase-1
            # violator blocks where it becomes feasible again, and moving
            # further out it does not block (its cost is in the gradient).
            # Each may overshoot by _FEAS_TOL; entries below _PIVOT_TOL are
            # round-off, not rates, so they neither block nor pivot
            rising = rate > _PIVOT_TOL
            target = np.where(rising != (below | above), ubB, lbB)
            blocking = np.flatnonzero(
                ((rising & ~above) | ((rate < -_PIVOT_TOL) & ~below)) & np.isfinite(target)
            )
            theta_row = INF
            if blocking.size:
                rate_b = rate[blocking]
                theta = (target[blocking] - xB[blocking]) / rate_b
                # pass 2: of the rows blocking within the relaxed step, the
                # largest |rate| leaves (lowest index on ties)
                abs_rate = np.abs(rate_b)
                theta_max = float((theta + _FEAS_TOL / abs_rate).min())
                near = np.flatnonzero(theta <= theta_max)
                q = int(near[np.argmax(abs_rate[near])])
                p = int(blocking[q])
                theta_row = max(float(theta[q]), 0.0)

            flip_theta = INF
            if dirn[j] and np.isfinite(self.lb[j]) and np.isfinite(self.ub[j]):
                flip_theta = self.ub[j] - self.lb[j]

            theta_star = min(theta_row, flip_theta)
            if not np.isfinite(theta_star):
                if in_phase1:  # pragma: no cover - defensive
                    raise RuntimeError("phase 1 ray with unbounded improvement")
                return result("unbounded")

            degenerate_run = degenerate_run + 1 if theta_star <= 1e-11 else 0
            if degenerate_run > 60:
                bland = True  # stays on for the rest of this call
            if debug:
                _log.debug(
                    "it=%d phase1=%s j=%d dir=%+.0f d_j=%.6g theta=%.6g flip=%s",
                    iters, in_phase1, j, t_dir, d[j], theta_star, flip_theta < theta_row,
                )

            xB += theta_star * rate
            if theta_row <= flip_theta:
                leaving = int(self.basis[p])
                hit = target[p]
                self.x[leaving] = hit
                at_lower = hit == self.lb[leaving]
                self.vstat[leaving] = _AT_LOWER if at_lower else _AT_UPPER
                movable = (self.ub[leaving] - self.lb[leaving]) > 0
                dirn[leaving] = (1.0 if at_lower else -1.0) if movable else 0.0
                xB[p] = self.x[j] + t_dir * theta_star
                lbB[p], ubB[p], cB[p] = self.lb[j], self.ub[j], self.cost[j]
                self.basis[p] = j
                self.vstat[j] = _BASIC
                dirn[j] = 0.0
                if free.size:
                    free = free[free != j]
                row_p = self.binv[p] - U[:k, p] @ V[:k] if k else self.binv[p]
                V[k] = row_p / w[p]
                U[k] = w
                U[k, p] -= 1.0
                k += 1
                if k == _FOLD_EVERY:
                    self.binv -= U.T @ V
                    k = 0
                self._pivots_since_refactor += 1
            else:
                # entering column travels to its other bound; basis unchanged
                self.vstat[j] = _AT_UPPER if t_dir > 0 else _AT_LOWER
                self.x[j] = self.ub[j] if t_dir > 0 else self.lb[j]
                dirn[j] = -t_dir
            iters += 1
            phase1_iters += in_phase1


def solve_lp(lp: LinearMip) -> LpResult:
    """One-shot cold-start solve of the LP relaxation of ``lp``."""
    return SimplexSolver(lp).solve()
