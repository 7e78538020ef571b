"""Two-stage risk-constrained procurement for a price-making LSE.

The LSE buys ``d_da`` per period in the day-ahead market and settles the
realised forecast error ``d_bal = forecast + error - d_da`` per scenario in
the balancing market.  Both prices depend on total market demand through
piecewise-linear curves selected by binary bracket variables; bilinear
price-volume products are replaced by auxiliary columns with the standard
four-constraint linearization, applied to variables shifted by their lower
bound so signed volumes stay exact.  Risk aversion enters as
``beta * CVaR_alpha`` of the per-scenario cost.

``build_milp`` emits the complete model; ``solve`` reduces it using bracket
reachability (bounds on the LSE's volume make most bracket binaries
impossible, and a forced bracket lets its auxiliary columns be substituted
out), then runs branch and bound with a rounding heuristic that turns any
LP point into a feasible incumbent.  ``brute_force_oracle`` independently
minimizes over an explicit partition of the decision box for small
instances.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .domain import _freeze
from .market import PriceCurve, SystemExogenous, bracket_index, bracket_indices
from .milp import LinearMip, MipBuilder, solve_milp
from .milp._sparse import SparseMatrix
from .scenario import ErrorScenarioSet

INF = float("inf")


# --------------------------------------------------------------------------
# CVaR helpers
# --------------------------------------------------------------------------


def cvar_kinks(
    costs: np.ndarray, probs: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact CVaR_alpha and a minimizing zeta per row of a (P, S) cost matrix.

    Evaluates ``zeta + (1/(1-alpha)) * sum_s pi_s * max(cost_s - zeta, 0)``
    at every sorted cost value and takes the minimum, which is attained at
    a kink of this convex piecewise-linear function (Rockafellar & Uryasev
    2000).  A 1-D cost vector is one row.
    """
    costs = np.atleast_2d(np.asarray(costs, dtype=float))
    order = np.argsort(costs, axis=1)
    c_sorted = np.take_along_axis(costs, order, axis=1)
    p_sorted = np.asarray(probs, dtype=float)[order]
    sp = np.cumsum(p_sorted[:, ::-1], axis=1)[:, ::-1]
    spc = np.cumsum((p_sorted * c_sorted)[:, ::-1], axis=1)[:, ::-1]
    vals = c_sorted + (spc - c_sorted * sp) / (1.0 - alpha)
    rows, k = np.arange(vals.shape[0]), np.argmin(vals, axis=1)
    return vals[rows, k], c_sorted[rows, k]


def cvar_of_costs(costs, probs, alpha: float) -> float:
    """Conditional value-at-risk of a discrete cost distribution."""
    probs = np.asarray(probs, dtype=float)
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("probabilities must sum to 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return float(cvar_kinks(costs, probs, alpha)[0][0])


# --------------------------------------------------------------------------
# Instance
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcurementInstance:
    """All data defining one day's procurement problem (volumes in MWh)."""

    d_fore: np.ndarray  # (T,)
    scenarios: ErrorScenarioSet  # errors (S, T), MWh
    da_curve: PriceCurve
    bal_curves: tuple[PriceCurve, ...]  # length S, shared grid
    exogenous: SystemExogenous
    beta: float
    alpha: float
    d_da_lower: np.ndarray  # (T,)
    d_da_upper: np.ndarray  # (T,)

    def __post_init__(self):
        object.__setattr__(self, "d_fore", _freeze(self.d_fore))
        object.__setattr__(self, "d_da_lower", _freeze(self.d_da_lower))
        object.__setattr__(self, "d_da_upper", _freeze(self.d_da_upper))
        object.__setattr__(self, "bal_curves", tuple(self.bal_curves))
        T = self.d_fore.size
        S = self.scenarios.n_scenarios
        if self.scenarios.n_periods != T:
            raise ValueError("scenario periods do not match the forecast")
        if len(self.bal_curves) != S:
            raise ValueError("need one balancing curve per scenario")
        base = self.bal_curves[0]
        for c in self.bal_curves[1:]:
            if c.n_levels != base.n_levels or abs(c.delta - base.delta) > 1e-9 or abs(
                c.demand_levels[0] - base.demand_levels[0]
            ) > 1e-9:
                raise ValueError("balancing curves must share one demand grid")
        if self.exogenous.d_sys_base.shape != (T,):
            raise ValueError("exogenous system demand must have T entries")
        if self.exogenous.d_imb_base.shape != (S, T):
            raise ValueError("exogenous imbalance must be (S, T)")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.d_da_lower.shape != (T,) or self.d_da_upper.shape != (T,):
            raise ValueError("volume bounds must have T entries")
        if not (np.isfinite(self.d_da_lower).all() and np.isfinite(self.d_da_upper).all()):
            raise ValueError("volume bounds must be finite")
        if np.any(self.d_da_lower > self.d_da_upper):
            raise ValueError("lower volume bound exceeds upper")

    @property
    def n_periods(self) -> int:
        return self.d_fore.size

    @property
    def n_scenarios(self) -> int:
        return self.scenarios.n_scenarios

    def realized_demand(self) -> np.ndarray:
        """forecast + error per (s, t); what must be procured in total."""
        return self.d_fore[None, :] + self.scenarios.errors


def default_volume_bounds(d_fore: np.ndarray, mult: float = 3.0) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric bounds ``+- mult * max|forecast|`` for every period."""
    d_fore = np.asarray(d_fore, dtype=float)
    width = mult * float(np.abs(d_fore).max())
    lo = np.full(d_fore.size, -width)
    hi = np.full(d_fore.size, width)
    return lo, hi


# --------------------------------------------------------------------------
# Full MILP model
# --------------------------------------------------------------------------


@dataclass
class MilpModel:
    """Complete linearized model plus the index maps into its columns."""

    lp: LinearMip
    instance: ProcurementInstance
    T: int
    S: int
    B: int
    F: int
    off_d_da: int
    off_d_bal: int
    col_zeta: int
    off_eta: int
    off_c_da: int
    off_c_bal: int
    off_u_da: int
    off_u_bal: int
    big_m: np.ndarray  # (T,)
    k_mat: np.ndarray  # (S, T) forecast + error

    def d_bal_col(self, s: int, t: int) -> int:
        return self.off_d_bal + s * self.T + t

    def c_da_col(self, t: int, b: int) -> int:
        return self.off_c_da + t * self.B + b

    def c_bal_col(self, s: int, t: int, f: int) -> int:
        return self.off_c_bal + (s * self.T + t) * self.F + f

    def u_da_col(self, t: int, b: int) -> int:
        return self.off_u_da + t * self.B + b

    def u_bal_col(self, s: int, t: int, f: int) -> int:
        return self.off_u_bal + (s * self.T + t) * self.F + f


def _check_coverage(inst: ProcurementInstance) -> None:
    """Raise for the first period whose reachable demand leaves a price grid:
    day-ahead periods first, then the balancing scenarios, scenario-major."""
    tol = 1e-9
    da = inst.da_curve
    da_lo = inst.exogenous.d_sys_base + inst.d_da_lower
    da_hi = inst.exogenous.d_sys_base + inst.d_da_upper
    bad = np.flatnonzero((da_lo < da.lo - tol) | (da_hi > da.hi + tol))
    if bad.size:
        t = int(bad[0])
        raise ValueError(
            f"day-ahead price grid does not cover period {t}: "
            f"reachable demand [{da_lo[t]:.6g}, {da_hi[t]:.6g}] vs curve "
            f"[{da.lo:.6g}, {da.hi:.6g}]"
        )
    imb = inst.exogenous.d_imb_base + inst.realized_demand()
    bal_lo = imb - inst.d_da_upper
    bal_hi = imb - inst.d_da_lower
    curve_lo = np.array([c.lo for c in inst.bal_curves])[:, None]
    curve_hi = np.array([c.hi for c in inst.bal_curves])[:, None]
    bad = np.argwhere((bal_lo < curve_lo - tol) | (bal_hi > curve_hi + tol))
    if bad.size:
        s, t = (int(i) for i in bad[0])
        curve = inst.bal_curves[s]
        raise ValueError(
            f"balancing price grid does not cover scenario {s}, period {t}: "
            f"reachable imbalance [{bal_lo[s, t]:.6g}, {bal_hi[s, t]:.6g}] vs curve "
            f"[{curve.lo:.6g}, {curve.hi:.6g}]"
        )


def _cost_bound(inst: ProcurementInstance) -> float:
    k_mat = inst.realized_demand()
    dmax = np.maximum(np.abs(inst.d_da_lower), np.abs(inst.d_da_upper))
    balmax = np.maximum(
        np.abs(k_mat - inst.d_da_lower[None, :]), np.abs(k_mat - inst.d_da_upper[None, :])
    ).max(axis=0)
    da_p = float(np.abs(inst.da_curve.prices).max())
    bal_p = max(float(np.abs(c.prices).max()) for c in inst.bal_curves)
    return float(da_p * dmax.sum() + bal_p * balmax.sum()) + 1.0


def build_milp(inst: ProcurementInstance) -> MilpModel:
    """Assemble the exact MILP: objective, balance, CVaR, bracket selection,
    SOS1 rows, and the shifted four-row linearization per bilinear term.

    Columns, in order: ``d_da[t]``, ``d_bal[s,t]``, ``zeta``, ``eta[s]``,
    ``c_da[t,b]``, ``c_bal[s,t,f]``, ``u_da[t,b]``, ``u_bal[s,t,f]``.  Rows,
    in order: ``balance[s,t]``, ``cvar[s]``, ``bracket_da[t]``,
    ``bracket_bal[s,t]``, ``sos1_da[t]``, ``sos1_bal[s,t]``, then three
    linearization rows per ``(t,b)`` and per ``(s,t,f)``.  Each block is
    filled with index arithmetic; exact-zero coefficients are left out of
    the matrix, and the model carries no names.
    """
    _check_coverage(inst)
    T, S = inst.n_periods, inst.n_scenarios
    B = inst.da_curve.n_levels
    F = inst.bal_curves[0].n_levels
    k_mat = inst.realized_demand()
    lo, hi = inst.d_da_lower, inst.d_da_upper
    big_m = hi - lo
    probs = inst.scenarios.probabilities
    m_cost = _cost_bound(inst)
    lo_bal = k_mat - hi  # (S, T) lower bound of d_bal

    sizes = (T, S * T, 1, S, T * B, S * T * F, T * B, S * T * F)
    off_d_da, off_d_bal, col_zeta, off_eta, off_c_da, off_c_bal, off_u_da, off_u_bal, n_cols = (
        itertools.accumulate(sizes, initial=0)
    )
    d_da = off_d_da + np.arange(T)
    d_bal = off_d_bal + np.arange(S * T).reshape(S, T)
    eta = off_eta + np.arange(S)
    c_da = off_c_da + np.arange(T * B).reshape(T, B)
    c_bal = off_c_bal + np.arange(S * T * F).reshape(S, T, F)
    u_da = c_da + (off_u_da - off_c_da)
    u_bal = c_bal + (off_u_bal - off_c_bal)

    col_lower = np.zeros(n_cols)
    col_upper = np.ones(n_cols)  # the binaries keep these bounds
    col_lower[d_da], col_upper[d_da] = lo, hi
    col_lower[d_bal], col_upper[d_bal] = lo_bal, k_mat - lo
    col_lower[col_zeta], col_upper[col_zeta] = -m_cost, m_cost
    col_upper[eta] = 2.0 * m_cost
    col_upper[c_da] = big_m[:, None]
    col_upper[c_bal] = big_m[None, :, None]
    is_integer = np.zeros(n_cols, dtype=bool)
    is_integer[off_u_da:] = True

    # scenario cost per linearized term: c_da + lo * u_da and c_bal + lo_bal
    # * u_bal; the objective weighs the balancing terms by probability
    da_prices = inst.da_curve.prices
    bal_prices = np.vstack([c.prices for c in inst.bal_curves])  # (S, F)
    cost_u_da = da_prices[None, :] * lo[:, None]
    cost_u_bal = bal_prices[:, None, :] * lo_bal[:, :, None]
    w_bal = probs[:, None] * bal_prices
    obj = np.zeros(n_cols)
    obj[col_zeta] = inst.beta
    obj[eta] = inst.beta * probs / (1.0 - inst.alpha)
    obj[c_da] += da_prices[None, :]
    obj[u_da] += cost_u_da
    obj[c_bal] += w_bal[:, None, :]
    obj[u_bal] += w_bal[:, None, :] * lo_bal[:, :, None]

    row_lower: list[np.ndarray] = []
    row_upper: list[np.ndarray] = []
    entries: list[tuple[np.ndarray, ...]] = []

    def rows(shape: tuple[int, ...], lower, upper) -> np.ndarray:
        """Indices of the next block of rows, which get the given bounds."""
        start = sum(b.size for b in row_lower)
        row_lower.append(np.broadcast_to(lower, shape).ravel())
        row_upper.append(np.broadcast_to(upper, shape).ravel())
        return start + np.arange(row_lower[-1].size).reshape(shape)

    def add(row, col, val) -> None:
        entries.append(tuple(a.ravel() for a in np.broadcast_arrays(row, col, val)))

    # balance: d_da + d_bal = forecast + error
    r = rows((S, T), k_mat, k_mat)
    add(r, d_da, 1.0)
    add(r, d_bal, 1.0)

    # CVaR rows: scenario cost (via linearized terms) - zeta <= eta_s
    r = rows((S,), -INF, 0.0)
    add(r, col_zeta, -1.0)
    add(r, eta, -1.0)
    r = r[:, None, None]
    add(r, c_da, da_prices)
    add(r, u_da, cost_u_da)
    add(r, c_bal, bal_prices[:, None, :])
    add(r, u_bal, cost_u_bal)

    # bracket selection: chosen level within half a spacing of total demand
    half_da = inst.da_curve.delta / 2.0
    base = inst.exogenous.d_sys_base
    r = rows((T,), base - half_da, base + half_da)
    add(r[:, None], u_da, inst.da_curve.demand_levels)
    add(r, d_da, -1.0)
    half_bal = np.array([c.delta for c in inst.bal_curves])[:, None] / 2.0
    base = inst.exogenous.d_imb_base
    r = rows((S, T), base - half_bal, base + half_bal)
    add(r[:, :, None], u_bal, np.vstack([c.demand_levels for c in inst.bal_curves])[:, None, :])
    add(r, d_bal, -1.0)

    # exactly one bracket per market and period
    add(rows((T,), 1.0, 1.0)[:, None], u_da, 1.0)
    add(rows((S, T), 1.0, 1.0)[:, :, None], u_bal, 1.0)

    # linearization of u * (d - lower bound), three rows per term: c <= M u,
    # c <= d - lower, c >= d - lower - M (1 - u); c >= 0 is the column bound
    for c, u, d, lower, m in (
        (c_da, u_da, d_da[:, None], lo[:, None], big_m[:, None]),
        (c_bal, u_bal, d_bal[:, :, None], lo_bal[:, :, None], big_m[None, :, None]),
    ):
        r = rows(
            c.shape + (3,),
            np.stack(np.broadcast_arrays(-INF, -INF, -lower - m), axis=-1),
            np.stack(np.broadcast_arrays(0.0, -lower, INF), axis=-1),
        )
        ub_u, ub_d, lb = r[..., 0], r[..., 1], r[..., 2]
        add(ub_u, c, 1.0)
        add(ub_u, u, -m)
        add(ub_d, c, 1.0)
        add(ub_d, d, -1.0)
        add(lb, c, 1.0)
        add(lb, d, -1.0)
        add(lb, u, -m)

    row_lower, row_upper = np.concatenate(row_lower), np.concatenate(row_upper)
    ri, ci, v = (np.concatenate(parts) for parts in zip(*entries))
    keep = v != 0.0
    lp = LinearMip(
        col_lower=col_lower,
        col_upper=col_upper,
        obj=obj,
        is_integer=is_integer,
        row_matrix=SparseMatrix.from_coo(row_lower.size, n_cols, ri[keep], ci[keep], v[keep]),
        row_lower=row_lower,
        row_upper=row_upper,
    )
    return MilpModel(
        lp=lp,
        instance=inst,
        T=T,
        S=S,
        B=B,
        F=F,
        off_d_da=off_d_da,
        off_d_bal=off_d_bal,
        col_zeta=col_zeta,
        off_eta=off_eta,
        off_c_da=off_c_da,
        off_c_bal=off_c_bal,
        off_u_da=off_u_da,
        off_u_bal=off_u_bal,
        big_m=big_m,
        k_mat=k_mat,
    )


# --------------------------------------------------------------------------
# Solution container
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Solution:
    status: str  # "optimal" | "infeasible"
    objective: float
    expected_cost: float
    cvar: float
    gap: float
    d_da: np.ndarray  # (T,)
    d_bal: np.ndarray  # (S, T)
    u_da: np.ndarray  # (T, B) 0/1
    u_bal: np.ndarray  # (S, T, F) 0/1
    zeta: float
    eta: np.ndarray  # (S,)
    scenario_costs: np.ndarray  # (S,)
    price_da: np.ndarray  # (T,)
    price_bal: np.ndarray  # (S, T)
    n_nodes: int = 0
    lp_point: np.ndarray | None = None  # raw solver point in full-model space
    infeasible_row: str | None = None


def _empty_solution(status: str, row: str | None = None) -> Solution:
    z = np.zeros(0)
    return Solution(
        status=status,
        objective=INF,
        expected_cost=INF,
        cvar=INF,
        gap=INF,
        d_da=z,
        d_bal=np.zeros((0, 0)),
        u_da=np.zeros((0, 0)),
        u_bal=np.zeros((0, 0, 0)),
        zeta=0.0,
        eta=z,
        scenario_costs=z,
        price_da=z,
        price_bal=np.zeros((0, 0)),
        infeasible_row=row,
    )


def evaluate_selection(
    inst: ProcurementInstance,
    d_da: np.ndarray,
    b_sel: np.ndarray,
    f_sel: np.ndarray,
) -> tuple[float, float, float, float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact objective pieces for given volumes and bracket choices.

    Returns (objective, expected_cost, cvar, zeta, costs, eta, price_da,
    price_bal).
    """
    k_mat = inst.realized_demand()
    d_bal = k_mat - d_da[None, :]
    price_da = inst.da_curve.prices[b_sel]
    price_bal = np.vstack(
        [inst.bal_curves[s].prices[f_sel[s]] for s in range(inst.n_scenarios)]
    )
    da_cost = float(price_da @ d_da)
    costs = da_cost + (price_bal * d_bal).sum(axis=1)
    probs = inst.scenarios.probabilities
    expected = float(probs @ costs)
    cvars, zetas = cvar_kinks(costs, probs, inst.alpha)
    cvar, zeta = float(cvars[0]), float(zetas[0])
    eta = np.maximum(costs - zeta, 0.0)
    objective = expected + inst.beta * cvar
    return objective, expected, cvar, zeta, costs, eta, price_da, price_bal


# --------------------------------------------------------------------------
# Reachability reduction
# --------------------------------------------------------------------------


@dataclass
class _Reduction:
    lo: np.ndarray  # tightened d_da bounds (T,)
    hi: np.ndarray
    da_range: list[tuple[int, int]]  # inclusive reachable bracket range per t
    bal_range: list[list[tuple[int, int]]]  # per s, per t
    infeasible_group: str | None = None


def _reachable(curve: PriceCurve, demand_lo: float, demand_hi: float) -> tuple[int, int]:
    tol = 1e-9
    lo_idx = int(np.ceil((demand_lo - curve.delta / 2.0 - curve.demand_levels[0]) / curve.delta - tol))
    hi_idx = int(np.floor((demand_hi + curve.delta / 2.0 - curve.demand_levels[0]) / curve.delta + tol))
    return max(lo_idx, 0), min(hi_idx, curve.n_levels - 1)


def _reduce(inst: ProcurementInstance) -> _Reduction:
    T, S = inst.n_periods, inst.n_scenarios
    k_mat = inst.realized_demand()
    lo = inst.d_da_lower.copy()
    hi = inst.d_da_upper.copy()
    da_range = [(0, 0)] * T
    bal_range = [[(0, 0)] * T for _ in range(S)]
    for _ in range(2 + S):
        changed = False
        for t in range(T):
            base = inst.exogenous.d_sys_base[t]
            bmin, bmax = _reachable(inst.da_curve, base + lo[t], base + hi[t])
            if bmin > bmax:
                return _Reduction(lo, hi, da_range, bal_range, f"bracket_da[{t}]")
            da_range[t] = (bmin, bmax)
            if bmin == bmax:
                level = inst.da_curve.demand_levels[bmin]
                new_lo = max(lo[t], level - inst.da_curve.delta / 2.0 - base)
                new_hi = min(hi[t], level + inst.da_curve.delta / 2.0 - base)
                if new_lo > lo[t] + 1e-12 or new_hi < hi[t] - 1e-12:
                    lo[t], hi[t] = new_lo, new_hi
                    changed = True
                if lo[t] > hi[t] + 1e-9:
                    return _Reduction(lo, hi, da_range, bal_range, f"bracket_da[{t}]")
        for s in range(S):
            curve = inst.bal_curves[s]
            for t in range(T):
                base = inst.exogenous.d_imb_base[s, t]
                bal_lo = k_mat[s, t] - hi[t]
                bal_hi = k_mat[s, t] - lo[t]
                fmin, fmax = _reachable(curve, base + bal_lo, base + bal_hi)
                if fmin > fmax:
                    return _Reduction(lo, hi, da_range, bal_range, f"bracket_bal[{s},{t}]")
                bal_range[s][t] = (fmin, fmax)
                if fmin == fmax:
                    level = curve.demand_levels[fmin]
                    cell_lo = level - curve.delta / 2.0 - base
                    cell_hi = level + curve.delta / 2.0 - base
                    new_lo = max(lo[t], k_mat[s, t] - cell_hi)
                    new_hi = min(hi[t], k_mat[s, t] - cell_lo)
                    if new_lo > lo[t] + 1e-12 or new_hi < hi[t] - 1e-12:
                        lo[t], hi[t] = new_lo, new_hi
                        changed = True
                    if lo[t] > hi[t] + 1e-9:
                        return _Reduction(lo, hi, da_range, bal_range, f"bracket_bal[{s},{t}]")
        if not changed:
            break
    return _Reduction(lo, hi, da_range, bal_range)


# --------------------------------------------------------------------------
# Solve
# --------------------------------------------------------------------------


def solve(model: MilpModel, tol: float = 1e-6) -> Solution:
    """Branch-and-bound solve of the procurement MILP to absolute gap ``tol``."""
    inst = model.instance
    T, S = model.T, model.S
    red = _reduce(inst)
    if red.infeasible_group is not None:
        return _empty_solution("infeasible", red.infeasible_group)

    k_mat = model.k_mat
    lo, hi = red.lo, red.hi
    big_m = hi - lo
    probs = inst.scenarios.probabilities
    m_cost = _cost_bound(inst)
    da_prices = inst.da_curve.prices
    da_levels = inst.da_curve.demand_levels

    b = MipBuilder()
    d_cols = [b.add_col(f"d_da[{t}]", lo[t], hi[t]) for t in range(T)]
    zeta_col = b.add_col("zeta", -m_cost, m_cost, obj=inst.beta)
    eta_cols = [
        b.add_col(f"eta[{s}]", 0.0, 2.0 * m_cost, obj=inst.beta * probs[s] / (1.0 - inst.alpha))
        for s in range(S)
    ]
    cvar_coeffs: list[dict[int, float]] = [
        {zeta_col: -1.0, eta_cols[s]: -1.0} for s in range(S)
    ]
    cvar_const = np.zeros(S)

    free_da = [t for t in range(T) if red.da_range[t][0] < red.da_range[t][1]]
    free_bal = [
        (s, t)
        for s in range(S)
        for t in range(T)
        if red.bal_range[s][t][0] < red.bal_range[s][t][1]
    ]

    u_da_cols: dict[tuple[int, int], int] = {}
    u_bal_cols: dict[tuple[int, int, int], int] = {}
    for t in free_da:
        bmin, bmax = red.da_range[t]
        for bb in range(bmin, bmax + 1):
            u_da_cols[(t, bb)] = b.add_col(f"u_da[{t},{bb}]", 0.0, 1.0, integer=True)
    for s, t in free_bal:
        fmin, fmax = red.bal_range[s][t]
        for f in range(fmin, fmax + 1):
            u_bal_cols[(s, t, f)] = b.add_col(f"u_bal[{s},{t},{f}]", 0.0, 1.0, integer=True)
    c_da_cols: dict[tuple[int, int], int] = {}
    c_bal_cols: dict[tuple[int, int, int], int] = {}
    for t, bb in u_da_cols:
        c_da_cols[(t, bb)] = b.add_col(f"c_da[{t},{bb}]", 0.0, big_m[t])
    for s, t, f in u_bal_cols:
        c_bal_cols[(s, t, f)] = b.add_col(f"c_bal[{s},{t},{f}]", 0.0, big_m[t])

    def _add_cost(col: int, coef: float, s: int | None, weight: float) -> None:
        """Add a cost coefficient to the objective and the CVaR rows."""
        b.add_obj(col, coef * weight)
        if s is None:
            for row in cvar_coeffs:
                row[col] = row.get(col, 0.0) + coef
        else:
            cvar_coeffs[s][col] = cvar_coeffs[s].get(col, 0.0) + coef

    # day-ahead cost terms
    for t in range(T):
        bmin, bmax = red.da_range[t]
        if bmin == bmax:
            _add_cost(d_cols[t], float(da_prices[bmin]), None, 1.0)
        else:
            for bb in range(bmin, bmax + 1):
                _add_cost(c_da_cols[(t, bb)], float(da_prices[bb]), None, 1.0)
                _add_cost(u_da_cols[(t, bb)], float(da_prices[bb] * lo[t]), None, 1.0)
    # balancing cost terms: lambda * (K - d_da) for resolved groups
    for s in range(S):
        prices_s = inst.bal_curves[s].prices
        for t in range(T):
            fmin, fmax = red.bal_range[s][t]
            if fmin == fmax:
                lam = float(prices_s[fmin])
                b.add_obj(d_cols[t], -probs[s] * lam)
                b.obj_offset += probs[s] * lam * k_mat[s, t]
                cvar_coeffs[s][d_cols[t]] = cvar_coeffs[s].get(d_cols[t], 0.0) - lam
                cvar_const[s] -= lam * k_mat[s, t]
            else:
                lo_bal = k_mat[s, t] - hi[t]
                for f in range(fmin, fmax + 1):
                    _add_cost(c_bal_cols[(s, t, f)], float(prices_s[f]), s, probs[s])
                    _add_cost(u_bal_cols[(s, t, f)], float(prices_s[f] * lo_bal), s, probs[s])

    for s in range(S):
        b.add_row(f"cvar[{s}]", cvar_coeffs[s], -INF, float(cvar_const[s]))

    # the reduced model replaces the big-M linearization with the exact
    # per-group hull: sum of per-bracket contributions equals the shifted
    # volume and each contribution lives in its cell-induced interval;
    # integer-feasible points are identical but the LP bound is far tighter
    half_da = inst.da_curve.delta / 2.0
    for t in free_da:
        bmin, bmax = red.da_range[t]
        base = inst.exogenous.d_sys_base[t]
        b.add_row(
            f"sos1_da[{t}]",
            {u_da_cols[(t, bb)]: 1.0 for bb in range(bmin, bmax + 1)},
            1.0,
            1.0,
        )
        tie = {c_da_cols[(t, bb)]: 1.0 for bb in range(bmin, bmax + 1)}
        tie[d_cols[t]] = -1.0
        b.add_row(f"bracket_da[{t}]", tie, -lo[t], -lo[t])
        for bb in range(bmin, bmax + 1):
            cell_lo = da_levels[bb] - half_da - base
            cell_hi = da_levels[bb] + half_da - base
            a_b = max(0.0, cell_lo - lo[t])
            c_b = min(big_m[t], cell_hi - lo[t])
            c_col, u_col = c_da_cols[(t, bb)], u_da_cols[(t, bb)]
            b.add_row(f"lin_ub_da[{t},{bb}]", {c_col: 1.0, u_col: -c_b}, -INF, 0.0)
            b.add_row(f"lin_lb_da[{t},{bb}]", {c_col: 1.0, u_col: -a_b}, 0.0, INF)
    for s, t in free_bal:
        curve = inst.bal_curves[s]
        fmin, fmax = red.bal_range[s][t]
        half_bal = curve.delta / 2.0
        base = inst.exogenous.d_imb_base[s, t]
        lo_bal = k_mat[s, t] - hi[t]
        b.add_row(
            f"sos1_bal[{s},{t}]",
            {u_bal_cols[(s, t, f)]: 1.0 for f in range(fmin, fmax + 1)},
            1.0,
            1.0,
        )
        tie = {c_bal_cols[(s, t, f)]: 1.0 for f in range(fmin, fmax + 1)}
        tie[d_cols[t]] = 1.0
        b.add_row(f"bracket_bal[{s},{t}]", tie, hi[t], hi[t])
        for f in range(fmin, fmax + 1):
            cell_lo = curve.demand_levels[f] - half_bal - base
            cell_hi = curve.demand_levels[f] + half_bal - base
            a_f = max(0.0, cell_lo - lo_bal)
            c_f = min(big_m[t], cell_hi - lo_bal)
            c_col, u_col = c_bal_cols[(s, t, f)], u_bal_cols[(s, t, f)]
            b.add_row(f"lin_ub_bal[{s},{t},{f}]", {c_col: 1.0, u_col: -c_f}, -INF, 0.0)
            b.add_row(f"lin_lb_bal[{s},{t},{f}]", {c_col: 1.0, u_col: -a_f}, 0.0, INF)

    reduced = b.build()

    imb_demand = inst.exogenous.d_imb_base + k_mat  # (S, T) before d_da

    def selection_from_d(d_da: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        b_sel = bracket_indices(inst.da_curve, inst.exogenous.d_sys_base + d_da)
        f_sel = np.vstack(
            [bracket_indices(c, imb_demand[s] - d_da) for s, c in enumerate(inst.bal_curves)]
        )
        return b_sel, f_sel

    def heuristic(x: np.ndarray):
        d_da = np.clip(x[:T], lo, hi)
        try:
            b_sel, f_sel = selection_from_d(d_da)
        except ValueError:  # pragma: no cover - coverage was checked upfront
            return None
        obj, _, _, zeta, costs, eta, _, _ = evaluate_selection(inst, d_da, b_sel, f_sel)
        cand = np.zeros(reduced.n_cols)
        cand[:T] = d_da
        cand[zeta_col] = zeta
        cand[np.asarray(eta_cols)] = eta
        for (t, bb), col in u_da_cols.items():
            if bb == b_sel[t]:
                cand[col] = 1.0
                cand[c_da_cols[(t, bb)]] = d_da[t] - lo[t]
        for (s, t, f), col in u_bal_cols.items():
            if f == f_sel[s, t]:
                cand[col] = 1.0
                cand[c_bal_cols[(s, t, f)]] = hi[t] - d_da[t]
        return obj, cand  # objectives carry the model's constant offset

    result = solve_milp(reduced, gap_tol=tol, heuristic=heuristic)
    if result.status == "infeasible":
        row = reduced.row_names[result.infeasible_row] if result.infeasible_row >= 0 else None
        return _empty_solution("infeasible", row)

    x = result.x
    d_da = np.clip(x[:T], lo, hi)
    b_sel = np.empty(T, dtype=np.int64)
    for t in range(T):
        bmin, bmax = red.da_range[t]
        if bmin == bmax:
            b_sel[t] = bmin
        else:
            cols = [u_da_cols[(t, bb)] for bb in range(bmin, bmax + 1)]
            b_sel[t] = bmin + int(np.argmax(x[cols]))
    f_sel = np.empty((S, T), dtype=np.int64)
    for s in range(S):
        for t in range(T):
            fmin, fmax = red.bal_range[s][t]
            if fmin == fmax:
                f_sel[s, t] = fmin
            else:
                cols = [u_bal_cols[(s, t, f)] for f in range(fmin, fmax + 1)]
                f_sel[s, t] = fmin + int(np.argmax(x[cols]))

    objective, expected, cvar, zeta, costs, eta, price_da, price_bal = evaluate_selection(
        inst, d_da, b_sel, f_sel
    )

    u_da = np.zeros((T, model.B))
    u_da[np.arange(T), b_sel] = 1.0
    u_bal = np.zeros((S, T, model.F))
    for s in range(S):
        u_bal[s, np.arange(T), f_sel[s]] = 1.0
    d_bal = k_mat - d_da[None, :]

    # raw solver point mapped into the full model's column space
    full = np.zeros(model.lp.n_cols)
    full[model.off_d_da : model.off_d_da + T] = d_da
    full[model.off_d_bal : model.off_d_bal + S * T] = d_bal.reshape(-1)
    full[model.col_zeta] = x[zeta_col]
    full[model.off_eta : model.off_eta + S] = x[np.asarray(eta_cols)]
    for t in range(T):
        bmin, bmax = red.da_range[t]
        if bmin == bmax:
            full[model.u_da_col(t, bmin)] = 1.0
            full[model.c_da_col(t, bmin)] = d_da[t] - lo[t]
        else:
            for bb in range(bmin, bmax + 1):
                full[model.u_da_col(t, bb)] = x[u_da_cols[(t, bb)]]
                full[model.c_da_col(t, bb)] = x[c_da_cols[(t, bb)]]
    for s in range(S):
        for t in range(T):
            fmin, fmax = red.bal_range[s][t]
            if fmin == fmax:
                full[model.u_bal_col(s, t, fmin)] = 1.0
                full[model.c_bal_col(s, t, fmin)] = hi[t] - d_da[t]
            else:
                for f in range(fmin, fmax + 1):
                    full[model.u_bal_col(s, t, f)] = x[u_bal_cols[(s, t, f)]]
                    full[model.c_bal_col(s, t, f)] = x[c_bal_cols[(s, t, f)]]

    return Solution(
        status="optimal",
        objective=objective,
        expected_cost=expected,
        cvar=cvar,
        gap=result.gap,
        d_da=d_da,
        d_bal=d_bal,
        u_da=u_da,
        u_bal=u_bal,
        zeta=zeta,
        eta=eta,
        scenario_costs=costs,
        price_da=price_da,
        price_bal=price_bal,
        n_nodes=result.n_nodes,
        lp_point=full,
    )


# --------------------------------------------------------------------------
# Independent oracle
# --------------------------------------------------------------------------


def _feasible_cells(curve: PriceCurve, demand: float) -> list[int]:
    """All levels within half a spacing of ``demand`` (two at a boundary)."""
    r = (demand - curve.demand_levels[0]) / curve.delta
    out = []
    for k in (int(np.floor(r)), int(np.ceil(r))):
        if 0 <= k < curve.n_levels and abs(curve.demand_levels[k] - demand) <= curve.delta / 2.0 + 1e-9:
            if k not in out:
                out.append(k)
    return out


def _greedy_point(inst: ProcurementInstance, d_da: np.ndarray, k_mat: np.ndarray):
    """Exact best objective at fixed volumes: bracket choices decouple.

    At a cell boundary two brackets are feasible; since expected cost and
    CVaR are both nondecreasing in every scenario cost, picking the cheaper
    contribution per market and period is optimal.
    """
    T, S = inst.n_periods, inst.n_scenarios
    b_sel = np.empty(T, dtype=np.int64)
    for t in range(T):
        cells = _feasible_cells(inst.da_curve, inst.exogenous.d_sys_base[t] + d_da[t])
        if not cells:
            return None
        b_sel[t] = min(cells, key=lambda k: (inst.da_curve.prices[k] * d_da[t], k))
    f_sel = np.empty((S, T), dtype=np.int64)
    for s in range(S):
        curve = inst.bal_curves[s]
        for t in range(T):
            d_bal = k_mat[s, t] - d_da[t]
            cells = _feasible_cells(curve, inst.exogenous.d_imb_base[s, t] + d_bal)
            if not cells:
                return None
            f_sel[s, t] = min(cells, key=lambda k: (curve.prices[k] * d_bal, k))
    obj = evaluate_selection(inst, d_da, b_sel, f_sel)[0]
    return obj, b_sel, f_sel


def brute_force_oracle(
    inst: ProcurementInstance, grid_points: int = 12, *, max_boxes: int = 200_000
) -> Solution:
    """Exhaustive check of small instances by enumeration plus grid zoom.

    Enumerates every reachable day-ahead bracket assignment; within each,
    the decision box is split at balancing-cell edges so all bracket
    choices are constant per sub-box, making the objective convex there.
    Each sub-box is grid-searched with iterative zooming.  Only feasible
    for a handful of periods and scenarios.
    """
    _check_coverage(inst)
    T, S = inst.n_periods, inst.n_scenarios
    if T > 4 or S > 6:
        raise ValueError("oracle limited to small instances (T <= 4, S <= 6)")
    k_mat = inst.realized_demand()
    probs = inst.scenarios.probabilities
    lo, hi = inst.d_da_lower, inst.d_da_upper
    da_levels = inst.da_curve.demand_levels
    half_da = inst.da_curve.delta / 2.0

    reach = []
    for t in range(T):
        base = inst.exogenous.d_sys_base[t]
        bmin, bmax = _reachable(inst.da_curve, base + lo[t], base + hi[t])
        reach.append(range(bmin, bmax + 1))

    best_val = INF
    best = None  # (d_da, b_sel (T,), f_sel (S,T))
    n_boxes = 0

    for b_assign in itertools.product(*reach):
        intervals = []
        empty = False
        for t, bb in enumerate(b_assign):
            base = inst.exogenous.d_sys_base[t]
            cell_lo = da_levels[bb] - half_da - base
            cell_hi = da_levels[bb] + half_da - base
            a, z = max(lo[t], cell_lo), min(hi[t], cell_hi)
            if a > z:
                empty = True
                break
            # split at balancing-cell edges so bracket choices are constant
            cuts = {a, z}
            for s in range(S):
                curve = inst.bal_curves[s]
                edges = np.concatenate(
                    [
                        curve.demand_levels - curve.delta / 2.0,
                        [curve.demand_levels[-1] + curve.delta / 2.0],
                    ]
                )
                d_bp = inst.exogenous.d_imb_base[s, t] + k_mat[s, t] - edges
                for v in d_bp:
                    if a < v < z:
                        cuts.add(float(v))
            pts = sorted(cuts)
            intervals.append(
                [(pts[i], pts[i + 1]) for i in range(len(pts) - 1) if pts[i + 1] - pts[i] > 1e-12]
                or [(a, z)]
            )
        if empty:
            continue
        for box in itertools.product(*intervals):
            n_boxes += 1
            if n_boxes > max_boxes:
                raise ValueError("instance too large for the brute-force oracle")
            box_lo = np.array([iv[0] for iv in box])
            box_hi = np.array([iv[1] for iv in box])
            mid = (box_lo + box_hi) / 2.0
            # box corners can sit exactly on cell boundaries where a mixed
            # bracket combination is feasible at that single point only
            for corner in itertools.product(*zip(box_lo, box_hi)):
                got = _greedy_point(inst, np.asarray(corner), k_mat)
                if got is not None and got[0] < best_val:
                    best_val = got[0]
                    best = (np.asarray(corner), got[1], got[2])
            lam_da = inst.da_curve.prices[np.asarray(b_assign)]
            lam_bal = np.empty((S, T))
            f_sel = np.empty((S, T), dtype=np.int64)
            try:
                for s in range(S):
                    for t in range(T):
                        f = bracket_index(
                            inst.bal_curves[s],
                            inst.exogenous.d_imb_base[s, t] + k_mat[s, t] - mid[t],
                        )
                        f_sel[s, t] = f
                        lam_bal[s, t] = inst.bal_curves[s].prices[f]
            except ValueError:  # pragma: no cover - coverage was checked upfront
                continue
            # cheap lower bound: CVaR >= expected cost, expected cost is affine
            a_coef = lam_da - probs @ lam_bal
            const = float((probs[:, None] * lam_bal * k_mat).sum())
            e_min = float(np.minimum(a_coef * box_lo, a_coef * box_hi).sum()) + const
            if (1.0 + inst.beta) * e_min >= best_val - 1e-12:
                continue

            cur_lo, cur_hi = box_lo.copy(), box_hi.copy()
            local_best, local_pt = INF, mid
            for _ in range(60):
                axes = [np.linspace(cur_lo[t], cur_hi[t], grid_points) for t in range(T)]
                mesh = np.meshgrid(*axes, indexing="ij")
                pts = np.stack([m.ravel() for m in mesh], axis=1)  # (P, T)
                da_cost = pts @ lam_da
                resid = k_mat[None, :, :] - pts[:, None, :]
                costs = da_cost[:, None] + np.einsum("pst,st->ps", resid, lam_bal)
                obj = costs @ probs + inst.beta * cvar_kinks(costs, probs, inst.alpha)[0]
                k = int(np.argmin(obj))
                if obj[k] < local_best:
                    local_best, local_pt = float(obj[k]), pts[k].copy()
                width = cur_hi - cur_lo
                if width.max() < 1e-11 * max(1.0, float(np.abs(local_pt).max())):
                    break
                shrink = 1.6 * width / (grid_points - 1)
                cur_lo = np.maximum(box_lo, local_pt - shrink)
                cur_hi = np.minimum(box_hi, local_pt + shrink)
            if local_best < best_val:
                best_val = local_best
                best = (local_pt, np.asarray(b_assign), f_sel.copy())

    if best is None:
        return _empty_solution("infeasible", "no reachable bracket assignment")
    d_da, b_sel, f_sel = best
    objective, expected, cvar, zeta, costs, eta, price_da, price_bal = evaluate_selection(
        inst, d_da, b_sel, f_sel
    )
    u_da = np.zeros((T, inst.da_curve.n_levels))
    u_da[np.arange(T), b_sel] = 1.0
    u_bal = np.zeros((S, T, inst.bal_curves[0].n_levels))
    for s in range(S):
        u_bal[s, np.arange(T), f_sel[s]] = 1.0
    return Solution(
        status="optimal",
        objective=objective,
        expected_cost=expected,
        cvar=cvar,
        gap=0.0,
        d_da=d_da,
        d_bal=k_mat - d_da[None, :],
        u_da=u_da,
        u_bal=u_bal,
        zeta=zeta,
        eta=eta,
        scenario_costs=costs,
        price_da=price_da,
        price_bal=price_bal,
    )


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def write_instance(inst: ProcurementInstance, path) -> None:
    """Single JSON document holding every matrix of the instance.

    Schema (all volumes MWh, prices currency/MWh)::

        d_fore          : [T]           day-ahead forecast
        errors          : [S][T]        scenario error deviations
        probs           : [S]           scenario probabilities
        da_curve        : {levels: [B], prices: [B]}
        bal_curves      : [{levels: [F], prices: [F]}] * S
        d_sys_base      : [T]           exogenous day-ahead system demand
        d_imb_base      : [S][T]        exogenous system imbalance
        beta, alpha     : risk weight and CVaR confidence
        d_da_lower/upper: [T]           decision bounds
    """
    doc = {
        "d_fore": inst.d_fore.tolist(),
        "errors": inst.scenarios.errors.tolist(),
        "probs": inst.scenarios.probabilities.tolist(),
        "da_curve": {
            "levels": inst.da_curve.demand_levels.tolist(),
            "prices": inst.da_curve.prices.tolist(),
            "delta": inst.da_curve.delta,
        },
        "bal_curves": [
            {
                "levels": c.demand_levels.tolist(),
                "prices": c.prices.tolist(),
                "delta": c.delta,
            }
            for c in inst.bal_curves
        ],
        "d_sys_base": inst.exogenous.d_sys_base.tolist(),
        "d_imb_base": inst.exogenous.d_imb_base.tolist(),
        "beta": inst.beta,
        "alpha": inst.alpha,
        "d_da_lower": inst.d_da_lower.tolist(),
        "d_da_upper": inst.d_da_upper.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _curve_from_doc(doc) -> PriceCurve:
    levels = np.asarray(doc["levels"], dtype=float)
    if "delta" in doc:
        delta = float(doc["delta"])
    else:
        delta = float(levels[1] - levels[0])
    return PriceCurve(levels, np.asarray(doc["prices"], dtype=float), delta)


def read_instance(path) -> ProcurementInstance:
    with open(path) as fh:
        doc = json.load(fh)
    scen = ErrorScenarioSet(
        np.asarray(doc["errors"], dtype=float), np.asarray(doc["probs"], dtype=float)
    )
    return ProcurementInstance(
        d_fore=np.asarray(doc["d_fore"], dtype=float),
        scenarios=scen,
        da_curve=_curve_from_doc(doc["da_curve"]),
        bal_curves=tuple(_curve_from_doc(c) for c in doc["bal_curves"]),
        exogenous=SystemExogenous(
            np.asarray(doc["d_sys_base"], dtype=float),
            np.asarray(doc["d_imb_base"], dtype=float),
        ),
        beta=float(doc["beta"]),
        alpha=float(doc["alpha"]),
        d_da_lower=np.asarray(doc["d_da_lower"], dtype=float),
        d_da_upper=np.asarray(doc["d_da_upper"], dtype=float),
    )
