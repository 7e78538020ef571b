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

Each solver keeps one dense, column-major copy of ``A``, m·n doubles
(about 0.45 MB for the largest model of the ``procure`` benchmark, 188
rows by 299 columns).  Pricing, the entering column and refactorization
all read it: ``y @ A`` is one product, a column ``a_j`` is contiguous,
and a refactorization gathers its blocks from it.

Phase 2 carries the reduced costs ``d`` from pivot to pivot through the
pivot row (Maros 2003, *Computational Techniques of the Simplex
Method*).  A pivot on row p that brings in column j with ``w = B⁻¹ a_j``
sets ``d ← d − (d_j / w_p) α_p`` for the pivot row
``α_p = ρ_p [A | −I] = [ρ_p A, −ρ_p]``, where ``ρ_p`` is row p of
``B⁻¹``, which the low-rank update below forms anyway: one m·n product
per pivot in place of ``y = c_B B⁻¹`` and ``y @ A``.  A bound flip leaves
``d`` as it is.  ``d = c − [A | −I]ᵀ y`` is priced from scratch at the
start of each solve, in every phase-1 iteration (the phase-1 costs change
with the violations), in the first phase-2 iteration, after each fold and
each refactorization, and before the solve returns optimal: if those
fresh prices show an improving column, the solve goes on.

Each column carries the sign of the step that moves it off its bound, +1
at a movable lower bound, −1 at a movable upper one and 0 if basic or
fixed, so the improving columns are ``sign · d < 0`` and the choice is one
``argmax``; nonbasic free columns are priced apart.  The values, bounds
and costs of the basic columns are carried by basis position from pivot
to pivot and written back to the point only at exit and at a
refactorization.  The loop calls ufunc reductions and ndarray methods
directly rather than numpy's Python-level wrappers, which cost more than
the work on vectors of a few hundred entries.

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
so the entering column's solve ``B0⁻¹ a_j − ((V a_j) @ U)`` and row p
each cost one or two extra skinny products instead of a dense m × m
rank-1 update per pivot; the carried prices take ``v``.
Every ``_FOLD_EVERY`` pivots one matrix product folds the update into
``B0⁻¹``, and it is folded at exit, so between solves ``binv`` is the
dense inverse of the current basis.

A refactorization inverts only the structural kernel of the basis (Suhl &
Suhl 1990, *ORSA J. Computing* 2): each basic slack covers its own row, so
with the rows ``R_n`` no basic slack covers, the basic structural columns
``S`` and the slack-covered rows ``R_s``, the basis permutes to
``[[K, 0], [C, -I]]`` with ``K = A[R_n, S]`` and ``C = A[R_s, S]``.  Its
inverse is ``[[K⁻¹, 0], [C K⁻¹, -I]]``: O(k³ + (m − k) k²) work for k
basic structurals instead of O(m³).  ``K`` and ``C`` are gathered from
the dense copy of ``A``; the dense basis is built only to repair a
singular one.

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
refactorizing.  A solve that runs past
``_ITER_CAP_BASE + _ITER_CAP_PER_DIM · (m + n)`` iterations stops with
status ``iteration_limit``.
"""

from __future__ import annotations

import logging
import math
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
# a solve stops with status "iteration_limit" past
# _ITER_CAP_BASE + _ITER_CAP_PER_DIM · (m + n) iterations
_ITER_CAP_BASE = 2000
_ITER_CAP_PER_DIM = 60

_log = logging.getLogger(__name__)


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
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
        self.dense = self.A.toarray()  # column-major copy of A: m × n doubles
        self.vstat = np.empty(self.N, dtype=np.int8)
        self.x = np.zeros(self.N)
        self.d = np.zeros(self.N)  # reduced costs of the last pricing or pivot
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
        """The dense m × m basis, gathered from the dense copy of ``A``; only
        a singular basis's repair needs it."""
        B = np.zeros((self.m, self.m))
        struct = (self.basis < self.n).nonzero()[0]
        B[:, struct] = self.dense[:, self.basis[struct]]
        slack = (self.basis >= self.n).nonzero()[0]
        B[self.basis[slack] - self.n, slack] = -1.0
        return B

    def _kernel_inverse(self, B: np.ndarray | None = None) -> np.ndarray:
        """``B⁻¹`` from the inverse of the structural kernel ``K`` alone.

        ``K`` and ``C`` are gathered from the dense copy of ``A``, or from
        ``B`` when given (the basis as an m × m matrix, columns by basis
        position).  Rows of the result follow basis positions, columns
        follow rows of ``A``.  A singular ``K`` (hence ``B``) raises
        ``LinAlgError``.
        """
        slack = self.basis >= self.n
        p_s = slack.nonzero()[0]  # positions of the basic slacks
        p_n = (~slack).nonzero()[0]  # positions of the basic structurals
        r_s = self.basis[p_s] - self.n  # the rows those slacks cover
        covered = np.zeros(self.m, dtype=bool)
        covered[r_s] = True
        r_n = (~covered).nonzero()[0]
        src, cols = (self.dense, self.basis[p_n]) if B is None else (B, p_n)
        kinv = np.linalg.inv(src[np.ix_(r_n, cols)])
        binv = np.zeros((self.m, self.m))
        binv[np.ix_(p_n, r_n)] = kinv
        binv[np.ix_(p_s, r_n)] = src[np.ix_(r_s, cols)] @ kinv
        binv[p_s, r_s] = -1.0
        return binv

    def _refactorize(self) -> None:
        try:
            self.binv = self._kernel_inverse()
        except np.linalg.LinAlgError:
            self._repair_basis(self._basis_matrix())
            self.binv = self._kernel_inverse()
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
        x, vstat = self.x, self.vstat
        at_lower = vstat == _AT_LOWER
        x[at_lower] = self.lb[at_lower]
        at_upper = vstat == _AT_UPPER
        x[at_upper] = self.ub[at_upper]
        x[vstat == _FREE] = 0.0
        tmp = x.copy()
        tmp[self.basis] = 0.0
        rhs = self.A.dot(tmp[: self.n]) - tmp[self.n :]
        x[self.basis] = -(self.binv @ rhs)

    def _basic_state(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Values, bounds and costs of the basic columns, by basis position."""
        b = self.basis
        return self.x.take(b), self.lb.take(b), self.ub.take(b), self.cost.take(b)

    def _directions(self) -> tuple[np.ndarray, np.ndarray]:
        """Per column, the sign of the step that moves it off its bound: +1
        at a movable lower bound, -1 at a movable upper one, 0 if basic or
        fixed; and the nonbasic free columns, which may move either way."""
        vstat = self.vstat
        movable = (self.ub - self.lb) > 0
        dirn = np.zeros(self.N)
        dirn[(vstat == _AT_LOWER) & movable] = 1.0
        dirn[(vstat == _AT_UPPER) & movable] = -1.0
        return dirn, ((vstat == _FREE) & movable).nonzero()[0]

    def _price(self, g: np.ndarray, c: np.ndarray | float, U: np.ndarray, V: np.ndarray) -> None:
        """Reduced costs ``d = c − [A | −I]ᵀ y`` into ``self.d``, for the
        prices ``y = g B⁻¹`` of the basic costs ``g`` and the inverse
        ``B⁻¹ = binv − Uᵀ V``; the slack part of ``d`` is ``y``, since a
        slack costs 0."""
        y = g @ self.binv
        if len(U):
            y -= (U @ g) @ V
        self.d[: self.n] = c - y @ self.dense
        self.d[self.n :] = y

    # ----- main loop ---------------------------------------------------------

    def solve(self) -> LpResult:
        m, n = self.m, self.n
        max_iter = _ITER_CAP_BASE + _ITER_CAP_PER_DIM * (m + n)
        dense, weights, lb, ub, cost = self.dense, self.weights, self.lb, self.ub, self.cost
        self._recompute_x()
        # the basic values, bounds and costs travel from pivot to pivot;
        # ``x`` holds them only at exit and after a refactorization
        xB, lbB, ubB, cB = self._basic_state()
        dirn, free = self._directions()
        # between folds the inverse is binv − U[:k].T @ V[:k]: each pivot appends
        # u = w − e_p and v = (row p of the inverse) / w_p
        U = np.empty((_FOLD_EVERY, m))
        V = np.empty((_FOLD_EVERY, m))
        k = 0
        # in phase 2 the reduced costs are carried from pivot to pivot while
        # ``carried`` holds, and priced afresh otherwise
        d = self.d
        carried = False
        iters = phase1_iters = 0
        degenerate_run = 0
        bland = False
        debug = _log.isEnabledFor(logging.DEBUG)  # per-iteration diagnostics

        def result(status: str, row: int = -1) -> LpResult:
            self.x[self.basis] = xB
            if k:
                self.binv -= U[:k].T @ V[:k]
            x = self.x[:n].copy()
            objective = -INF if status == "unbounded" else INF
            if status == "optimal":
                objective = float(cost[:n] @ x) + self.obj_offset
            return LpResult(status, objective, x, iters, row, phase1_iters, bland)

        while True:
            if iters > max_iter:
                return result("iteration_limit")
            if self._pivots_since_refactor >= _REFACTOR_EVERY:
                self._refactorize()
                self._recompute_x()
                xB, lbB, ubB, cB = self._basic_state()
                dirn, free = self._directions()
                k = 0
                carried = False

            below = xB < lbB - _FEAS_TOL
            above = xB > ubB + _FEAS_TOL
            violated = below | above
            in_phase1 = bool(np.logical_or.reduce(violated))
            fresh = in_phase1 or not carried
            if in_phase1:
                # phase 1 prices the violations: -1 below a lower bound, +1
                # above an upper one
                g = np.zeros(m)
                g[below] = -1.0
                g[above] = 1.0
                self._price(g, 0.0, U[:k], V[:k])
                carried = False
            elif fresh:
                self._price(cB, cost[:n], U[:k], V[:k])
                carried = True

            # a column improves when its step points downhill: d_j < 0 at a
            # lower bound, > 0 at an upper one, either way if free
            score = np.where(dirn * d < -_OPT_TOL, d**2 / weights, -1.0)
            if free.size:
                df = d[free]
                score[free] = np.where(np.abs(df) > _OPT_TOL, df**2 / weights[free], -1.0)
            j = int((score >= 0.0).argmax() if bland else score.argmax())
            if score[j] < 0.0:
                if in_phase1:
                    p = int(np.maximum(lbB - xB, xB - ubB).argmax())
                    leaving = int(self.basis[p])
                    return result("infeasible", leaving - n if leaving >= n else -1)
                if not fresh:
                    carried = False  # optimal only on fresh prices
                    continue
                return result("optimal")
            d_j = float(d[j])
            t_dir = float(dirn[j]) or (-1.0 if d_j > 0 else 1.0)

            # the entering column's solve B⁻¹ a_j
            if j < n:
                a_j = dense[:, j]
                w = self.binv @ a_j
                if k:
                    w -= (V[:k] @ a_j) @ U[:k]
            else:
                w = -self.binv[:, j - n]
                if k:
                    w += U[:k].T @ V[:k, j - n]
            rate = -t_dir * w

            # ratio test, pass 1: a basic blocks at the first bound it meets,
            # rising at its upper and falling at its lower one; a phase-1
            # violator blocks where it becomes feasible again, and moving
            # further out it does not block (its cost is in the gradient).
            # Each may overshoot by _FEAS_TOL; entries below _PIVOT_TOL are
            # round-off, not rates, so they neither block nor pivot
            rising = rate > _PIVOT_TOL
            if in_phase1:
                target = np.where(rising != violated, ubB, lbB)
                blocks = (rising & ~above) | ((rate < -_PIVOT_TOL) & ~below)
            else:
                target = np.where(rising, ubB, lbB)
                blocks = rising | (rate < -_PIVOT_TOL)
            blocking = (blocks & np.isfinite(target)).nonzero()[0]
            theta_row = INF
            if blocking.size:
                rate_b = rate[blocking]
                theta = (target[blocking] - xB[blocking]) / rate_b
                # pass 2: of the rows blocking within the relaxed step, the
                # largest |rate| leaves (lowest index on ties)
                abs_rate = np.abs(rate_b)
                theta_max = float(np.minimum.reduce(theta + _FEAS_TOL / abs_rate))
                near = (theta <= theta_max).nonzero()[0]
                q = int(near[abs_rate[near].argmax()])
                p = int(blocking[q])
                theta_row = max(float(theta[q]), 0.0)

            flip_theta = INF
            lb_j, ub_j = float(lb[j]), float(ub[j])
            if dirn[j] and math.isfinite(lb_j) and math.isfinite(ub_j):
                flip_theta = ub_j - lb_j

            theta_star = min(theta_row, flip_theta)
            if not math.isfinite(theta_star):
                if in_phase1:  # pragma: no cover - defensive
                    raise RuntimeError("phase 1 ray with unbounded improvement")
                return result("unbounded")

            degenerate_run = degenerate_run + 1 if theta_star <= 1e-11 else 0
            if degenerate_run > 60:
                bland = True  # stays on for the rest of this call
            if debug:
                _log.debug(
                    "it=%d phase1=%s j=%d dir=%+.0f d_j=%.6g theta=%.6g flip=%s",
                    iters, in_phase1, j, t_dir, d_j, theta_star, flip_theta < theta_row,
                )

            xB += theta_star * rate
            if theta_row <= flip_theta:
                leaving = int(self.basis[p])
                hit = target[p]
                self.x[leaving] = hit
                at_lower = hit == lb[leaving]
                self.vstat[leaving] = _AT_LOWER if at_lower else _AT_UPPER
                movable = (ub[leaving] - lb[leaving]) > 0
                dirn[leaving] = (1.0 if at_lower else -1.0) if movable else 0.0
                xB[p] = self.x[j] + t_dir * theta_star
                lbB[p], ubB[p], cB[p] = lb_j, ub_j, cost[j]
                self.basis[p] = j
                self.vstat[j] = _BASIC
                dirn[j] = 0.0
                if free.size:
                    free = free[free != j]
                row_p = self.binv[p] - U[:k, p] @ V[:k] if k else self.binv[p]
                V[k] = row_p / w[p]
                U[k] = w
                U[k, p] -= 1.0
                if carried:
                    # d ← d − d_j α_p / w_p for the pivot row α_p = row_p [A | −I]
                    d[:n] -= d_j * (V[k] @ dense)
                    d[n:] += d_j * V[k]
                k += 1
                if k == _FOLD_EVERY:
                    self.binv -= U.T @ V
                    k = 0
                    carried = False
                self._pivots_since_refactor += 1
            else:
                # entering column travels to its other bound; basis and prices unchanged
                self.vstat[j] = _AT_UPPER if t_dir > 0 else _AT_LOWER
                self.x[j] = ub_j if t_dir > 0 else lb_j
                dirn[j] = -t_dir
            iters += 1
            phase1_iters += in_phase1


def solve_lp(lp: LinearMip) -> LpResult:
    """One-shot cold-start solve of the LP relaxation of ``lp``."""
    return SimplexSolver(lp).solve()
