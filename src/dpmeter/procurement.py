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
LP point into a feasible incumbent.  Both models are filled from numpy
arrays by index arithmetic; in the reduced one each free bracket group
(one market and period, or scenario and period, with several reachable
brackets) is a contiguous range of columns.  All balancing curves share
one demand grid.  ``brute_force_oracle`` independently minimizes over an
explicit partition of the decision box for small instances.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .domain import _freeze
from .market import PriceCurve, SystemExogenous, bracket_indices
from .milp import LinearMip, solve_milp
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
    bal_curves: tuple[PriceCurve, ...]  # length S, one demand grid
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
        grid = self.bal_curves[0]
        if any(
            c.delta != grid.delta or not np.array_equal(c.demand_levels, grid.demand_levels)
            for c in self.bal_curves[1:]
        ):
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

    @cached_property
    def bal_prices(self) -> np.ndarray:
        """(S, F) balancing prices over the shared grid ``bal_curves[0]``."""
        return _freeze(np.vstack([c.prices for c in self.bal_curves]))


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
    grid = inst.bal_curves[0]
    bad = np.argwhere((bal_lo < grid.lo - tol) | (bal_hi > grid.hi + tol))
    if bad.size:
        s, t = (int(i) for i in bad[0])
        raise ValueError(
            f"balancing price grid does not cover scenario {s}, period {t}: "
            f"reachable imbalance [{bal_lo[s, t]:.6g}, {bal_hi[s, t]:.6g}] vs curve "
            f"[{grid.lo:.6g}, {grid.hi:.6g}]"
        )


def _cost_bound(inst: ProcurementInstance) -> float:
    k_mat = inst.realized_demand()
    dmax = np.maximum(np.abs(inst.d_da_lower), np.abs(inst.d_da_upper))
    balmax = np.maximum(
        np.abs(k_mat - inst.d_da_lower[None, :]), np.abs(k_mat - inst.d_da_upper[None, :])
    ).max(axis=0)
    da_p = float(np.abs(inst.da_curve.prices).max())
    bal_p = float(np.abs(inst.bal_prices).max())
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
    grid = inst.bal_curves[0]
    F = grid.n_levels
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
    bal_prices = inst.bal_prices
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
    half_bal = grid.delta / 2.0
    base = inst.exogenous.d_imb_base
    r = rows((S, T), base - half_bal, base + half_bal)
    add(r[:, :, None], u_bal, grid.demand_levels)
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
    price_bal = inst.bal_prices[np.arange(inst.n_scenarios)[:, None], f_sel]
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
    da_min: np.ndarray  # (T,) inclusive reachable day-ahead bracket range
    da_max: np.ndarray
    bal_min: np.ndarray  # (S, T) inclusive reachable balancing bracket range
    bal_max: np.ndarray
    infeasible_group: str | None = None


def _reachable(curve: PriceCurve, demand_lo, demand_hi) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive range of the brackets whose cells meet [demand_lo,
    demand_hi], elementwise; empty (min > max) where none does."""
    tol = 1e-9
    lo_idx = np.ceil((demand_lo - curve.delta / 2.0 - curve.demand_levels[0]) / curve.delta - tol)
    hi_idx = np.floor((demand_hi + curve.delta / 2.0 - curve.demand_levels[0]) / curve.delta + tol)
    return (
        np.maximum(lo_idx, 0).astype(np.int64),
        np.minimum(hi_idx, curve.n_levels - 1).astype(np.int64),
    )


def _clip_to_cells(lo, hi, forced, cell_lo, cell_hi) -> np.ndarray:
    """Narrow each period's [lo, hi] into the cells, in d_da terms, of its
    groups forced to one bracket (axis 0 of the 2-D arrays runs over the
    groups sharing a period).  A period whose bounds move by no more than
    1e-12 keeps them.  Returns the periods that moved."""
    forced, cell_lo, cell_hi = np.atleast_2d(forced, cell_lo, cell_hi)
    new_lo = np.maximum(lo, np.where(forced, cell_lo, -INF).max(axis=0))
    new_hi = np.minimum(hi, np.where(forced, cell_hi, INF).min(axis=0))
    moved = (new_lo > lo + 1e-12) | (new_hi < hi - 1e-12)
    lo[moved], hi[moved] = new_lo[moved], new_hi[moved]
    return moved


def _reduce(inst: ProcurementInstance) -> _Reduction:
    """Reachable bracket ranges under the d_da bounds.  A group with one
    reachable bracket clips the bounds into that bracket's cell; passes
    repeat while a bound moves.  Each pass takes every day-ahead period at
    once, then every balancing (s, t) group at once against the shared grid."""
    da, grid = inst.da_curve, inst.bal_curves[0]
    sys_base, imb_base = inst.exogenous.d_sys_base, inst.exogenous.d_imb_base
    k_mat = inst.realized_demand()
    lo, hi = inst.d_da_lower.copy(), inst.d_da_upper.copy()
    bal_min = bal_max = np.zeros(k_mat.shape, dtype=np.int64)
    for _ in range(2 + inst.n_scenarios):
        da_min, da_max = _reachable(da, sys_base + lo, sys_base + hi)
        bad = np.argwhere(da_min > da_max)
        if not bad.size:
            forced = da_min == da_max
            level = da.demand_levels[da_min]
            moved = _clip_to_cells(
                lo, hi, forced, level - da.delta / 2.0 - sys_base, level + da.delta / 2.0 - sys_base
            )
            bad = np.argwhere(forced & (lo > hi + 1e-9))
        if bad.size:
            return _Reduction(lo, hi, da_min, da_max, bal_min, bal_max, f"bracket_da[{bad[0, 0]}]")
        bal_min, bal_max = _reachable(grid, imb_base + (k_mat - hi), imb_base + (k_mat - lo))
        bad = np.argwhere(bal_min > bal_max)
        if not bad.size:
            forced = bal_min == bal_max
            level = grid.demand_levels[bal_min]
            cell_lo = level - grid.delta / 2.0 - imb_base
            cell_hi = level + grid.delta / 2.0 - imb_base
            moved |= _clip_to_cells(lo, hi, forced, k_mat - cell_hi, k_mat - cell_lo)
            bad = np.argwhere(forced & (lo > hi + 1e-9))
        if bad.size:
            s, t = bad[0]
            return _Reduction(lo, hi, da_min, da_max, bal_min, bal_max, f"bracket_bal[{s},{t}]")
        if not moved.any():
            break
    return _Reduction(lo, hi, da_min, da_max, bal_min, bal_max)


# --------------------------------------------------------------------------
# Reduced model
# --------------------------------------------------------------------------


class _Groups(NamedTuple):
    """One market's free bracket groups (more than one reachable bracket),
    flattened to elements: one per reachable bracket, group after group.
    Each group's u and c columns are a contiguous range."""

    index: tuple[np.ndarray, ...]  # (t,) or (s, t) of each free group, row-major
    at: tuple[np.ndarray, ...]  # per element: the index of its group
    group: np.ndarray  # per element: its group's position in ``index``
    pos: np.ndarray  # its position within the group
    bracket: np.ndarray  # its bracket
    u: np.ndarray | None = None  # its bracket-selector column
    c: np.ndarray | None = None  # its column for the shifted volume in that bracket


def _free_groups(bmin: np.ndarray, bmax: np.ndarray) -> _Groups:
    index = np.nonzero(bmin < bmax)
    width = bmax[index] - bmin[index] + 1
    group = np.repeat(np.arange(width.size), width)
    pos = np.arange(group.size) - (np.cumsum(width) - width)[group]
    at = tuple(i[group] for i in index)
    return _Groups(index, at, group, pos, bmin[at] + pos)


def _group_argmax(values: np.ndarray, g: _Groups) -> np.ndarray:
    """Per group, the position of its largest value (the first of ties)."""
    table = np.full((g.index[0].size, g.pos.max(initial=0) + 1), -INF)
    table[g.group, g.pos] = values
    return np.argmax(table, axis=1)


def _running_sum(start, terms: np.ndarray) -> np.ndarray:
    """``start + terms[0] + terms[1] + ...`` added in order along axis 0, as
    an accumulating loop does (``np.sum`` adds pairwise)."""
    return np.cumsum(np.concatenate([np.expand_dims(start, 0), terms]), axis=0)[-1]


def _reduced_model(inst: ProcurementInstance, red: _Reduction) -> tuple[LinearMip, _Groups, _Groups]:
    """The model ``solve`` branches on.  A forced group prices its volume at
    its one bracket.  A free group keeps a u and a c column per reachable
    bracket and, instead of the big-M linearization, the exact per-group
    hull: the c sum to the shifted volume and each c lies in its bracket's
    cell.  Integer-feasible points are the full model's; the LP bound is
    far tighter.  Columns: ``d_da[t]``, ``zeta``, ``eta[s]``, then ``u_da``,
    ``u_bal``, ``c_da`` and ``c_bal`` over the free groups.  Rows:
    ``cvar[s]``, then the hull rows of each market's free groups.
    Exact-zero coefficients are left out, and the model carries no names."""
    T, S = inst.n_periods, inst.n_scenarios
    k_mat = inst.realized_demand()
    lo, hi = red.lo, red.hi
    big_m = hi - lo
    lo_bal = k_mat - hi  # (S, T) lower bound of d_bal
    probs = inst.scenarios.probabilities
    m_cost = _cost_bound(inst)
    da_curve, grid = inst.da_curve, inst.bal_curves[0]
    da_prices, bal_prices = da_curve.prices, inst.bal_prices

    da, bal = _free_groups(red.da_min, red.da_max), _free_groups(red.bal_min, red.bal_max)
    n_da, n_bal = da.group.size, bal.group.size
    off_u_da, off_u_bal, off_c_da, off_c_bal, n_cols = itertools.accumulate(
        (n_da, n_bal, n_da, n_bal), initial=T + 1 + S
    )
    da = da._replace(u=off_u_da + np.arange(n_da), c=off_c_da + np.arange(n_da))
    bal = bal._replace(u=off_u_bal + np.arange(n_bal), c=off_c_bal + np.arange(n_bal))
    (t_da,), t_bal = da.at, bal.at[1]
    col_zeta, eta = T, T + 1 + np.arange(S)

    col_lower = np.zeros(n_cols)
    col_upper = np.ones(n_cols)  # the binaries keep these bounds
    col_lower[:T], col_upper[:T] = lo, hi
    col_lower[col_zeta], col_upper[col_zeta] = -m_cost, m_cost
    col_upper[eta] = 2.0 * m_cost
    col_upper[da.c] = big_m[t_da]
    col_upper[bal.c] = big_m[t_bal]
    is_integer = np.zeros(n_cols, dtype=bool)
    is_integer[off_u_da:off_c_da] = True

    # a forced day-ahead group costs price * d_da; a forced balancing group
    # lambda * (K - d_da), whose constant goes to the offset and the CVaR bound
    forced_bal = red.bal_min == red.bal_max
    p_da = np.where(red.da_min == red.da_max, da_prices[red.da_min], 0.0)
    lam = bal_prices[np.arange(S)[:, None], red.bal_min]
    price_da = da_prices[da.bracket]
    price_bal = bal_prices[bal.at[0], bal.bracket]
    obj = np.zeros(n_cols)
    obj[:T] += p_da
    obj[:T] = _running_sum(obj[:T], np.where(forced_bal, -probs[:, None] * lam, 0.0))
    obj[col_zeta] = inst.beta
    obj[eta] = inst.beta * probs / (1.0 - inst.alpha)
    obj[da.c] += price_da
    obj[da.u] += price_da * lo[t_da]
    obj[bal.c] += price_bal * probs[bal.at[0]]
    obj[bal.u] += price_bal * lo_bal[bal.at] * probs[bal.at[0]]
    obj_offset = _running_sum(0.0, np.where(forced_bal, probs[:, None] * lam * k_mat, 0.0).ravel())
    cvar_const = _running_sum(np.zeros(S), np.where(forced_bal, -lam * k_mat, 0.0).T)

    n_rows = S + 2 * (da.index[0].size + n_da + bal.index[0].size + n_bal)
    row_lower, row_upper = np.empty(n_rows), np.empty(n_rows)
    entries: list[tuple[np.ndarray, ...]] = []

    def add(row, col, val) -> None:
        entries.append(tuple(a.ravel() for a in np.broadcast_arrays(row, col, val)))

    # CVaR rows: scenario cost - zeta <= eta_s, constants moved to the bound
    row_lower[:S], row_upper[:S] = -INF, cvar_const
    r = np.arange(S)
    add(r, col_zeta, -1.0)
    add(r, eta, -1.0)
    r = r[:, None]
    add(r, np.arange(T), p_da - np.where(forced_bal, lam, 0.0))
    add(r, da.c, price_da)
    add(r, da.u, price_da * lo[t_da])
    add(bal.at[0], bal.c, price_bal)
    add(bal.at[0], bal.u, price_bal * lo_bal[bal.at])

    def hull(g: _Groups, row0: int, curve: PriceCurve, base, lower, d_coef: float, rhs) -> None:
        """Rows of one market's free groups from ``row0``, group after group:
        ``sos1`` (one bracket), the tie row (``sum c + d_coef * d_da ==
        rhs``), then per bracket ``lin_ub`` and ``lin_lb``: c lies in the
        bracket's cell, shifted by ``lower`` and within [0, big_m]."""
        level, half = curve.demand_levels[g.bracket], curve.delta / 2.0
        lin_ub = row0 + 2 * (g.group + np.arange(g.group.size) + 1)
        sos1 = lin_ub - 2 * (g.pos + 1)  # per element: its group's first row
        first = sos1[g.pos == 0]
        row_lower[first], row_upper[first] = 1.0, 1.0
        row_lower[first + 1], row_upper[first + 1] = rhs, rhs
        row_lower[lin_ub], row_upper[lin_ub] = -INF, 0.0
        row_lower[lin_ub + 1], row_upper[lin_ub + 1] = 0.0, INF
        add(sos1, g.u, 1.0)
        add(sos1 + 1, g.c, 1.0)
        add(first + 1, g.index[-1], d_coef)
        add(lin_ub, g.c, 1.0)
        add(lin_ub, g.u, -np.minimum(big_m[g.at[-1]], level + half - base - lower))
        add(lin_ub + 1, g.c, 1.0)
        add(lin_ub + 1, g.u, -np.maximum(0.0, level - half - base - lower))

    hull(da, S, da_curve, inst.exogenous.d_sys_base[t_da], lo[t_da], -1.0, -lo[da.index[0]])
    hull(
        bal, S + 2 * (da.index[0].size + n_da), grid, inst.exogenous.d_imb_base[bal.at],
        lo_bal[bal.at], 1.0, hi[bal.index[1]],
    )

    ri, ci, v = (np.concatenate(parts) for parts in zip(*entries))
    keep = v != 0.0
    lp = LinearMip(
        col_lower=col_lower,
        col_upper=col_upper,
        obj=obj,
        is_integer=is_integer,
        row_matrix=SparseMatrix.from_coo(n_rows, n_cols, ri[keep], ci[keep], v[keep]),
        row_lower=row_lower,
        row_upper=row_upper,
        obj_offset=float(obj_offset),
    )
    return lp, da, bal


# --------------------------------------------------------------------------
# Solve
# --------------------------------------------------------------------------


def _one_hot(sel: np.ndarray, n: int) -> np.ndarray:
    return (sel[..., None] == np.arange(n)).astype(float)


def solve(model: MilpModel, tol: float = 1e-6) -> Solution:
    """Branch-and-bound solve of the procurement MILP to absolute gap ``tol``."""
    inst = model.instance
    T, S = model.T, model.S
    red = _reduce(inst)
    if red.infeasible_group is not None:
        return _empty_solution("infeasible", red.infeasible_group)
    reduced, da, bal = _reduced_model(inst, red)
    lo, hi = red.lo, red.hi
    k_mat = model.k_mat
    (t_da,), t_bal = da.at, bal.at[1]
    eta = slice(T + 1, T + 1 + S)
    imb_demand = inst.exogenous.d_imb_base + k_mat  # (S, T) before d_da

    def heuristic(x: np.ndarray):
        d_da = np.clip(x[:T], lo, hi)
        try:
            b_sel = bracket_indices(inst.da_curve, inst.exogenous.d_sys_base + d_da)
            f_sel = bracket_indices(inst.bal_curves[0], imb_demand - d_da)
        except ValueError:  # pragma: no cover - coverage was checked upfront
            return None
        obj, _, _, zeta, _, eta_s, _, _ = evaluate_selection(inst, d_da, b_sel, f_sel)
        cand = np.zeros(reduced.n_cols)
        cand[:T] = d_da
        cand[T] = zeta
        cand[eta] = eta_s
        hit = da.bracket == b_sel[t_da]
        cand[da.u[hit]] = 1.0
        cand[da.c[hit]] = (d_da - lo)[t_da[hit]]
        hit = bal.bracket == f_sel[bal.at]
        cand[bal.u[hit]] = 1.0
        cand[bal.c[hit]] = (hi - d_da)[t_bal[hit]]
        return obj, cand  # objectives carry the model's constant offset

    result = solve_milp(reduced, gap_tol=tol, heuristic=heuristic)
    if result.status == "infeasible":
        row = f"reduced row {result.infeasible_row}" if result.infeasible_row >= 0 else None
        return _empty_solution("infeasible", row)

    x = result.x
    d_da = np.clip(x[:T], lo, hi)
    b_sel, f_sel = red.da_min.copy(), red.bal_min.copy()
    b_sel[da.index] += _group_argmax(x[da.u], da)
    f_sel[bal.index] += _group_argmax(x[bal.u], bal)
    objective, expected, cvar, zeta, costs, eta_s, price_da, price_bal = evaluate_selection(
        inst, d_da, b_sel, f_sel
    )
    d_bal = k_mat - d_da[None, :]
    u_da, u_bal = _one_hot(b_sel, model.B), _one_hot(f_sel, model.F)

    # raw solver point mapped into the full model's column space: every
    # group takes its selected bracket with the whole shifted volume, and
    # the free groups' columns then take the solver's values
    full = np.concatenate([
        d_da, d_bal.ravel(), x[T : T + 1 + S],  # d_da, d_bal, zeta, eta
        (u_da * (d_da - lo)[:, None]).ravel(), (u_bal * (hi - d_da)[:, None]).ravel(),
        u_da.ravel(), u_bal.ravel(),
    ])
    full[model.u_da_col(t_da, da.bracket)] = x[da.u]
    full[model.c_da_col(t_da, da.bracket)] = x[da.c]
    full[model.u_bal_col(*bal.at, bal.bracket)] = x[bal.u]
    full[model.c_bal_col(*bal.at, bal.bracket)] = x[bal.c]

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
        eta=eta_s,
        scenario_costs=costs,
        price_da=price_da,
        price_bal=price_bal,
        n_nodes=result.n_nodes,
        lp_point=full,
    )


# --------------------------------------------------------------------------
# Independent oracle
# --------------------------------------------------------------------------


def _cheapest_cells(curve: PriceCurve, prices: np.ndarray, demand, volume) -> np.ndarray:
    """Per entry, the bracket whose cell holds ``demand`` at the lowest cost
    ``price * volume`` (the lower one of two at a cell boundary on a tie),
    or -1 where no cell holds it.  ``prices`` is (levels,) or, with a
    (S, T) ``demand``, (S, levels)."""
    r = (demand - curve.demand_levels[0]) / curve.delta
    k = np.stack([np.floor(r), np.ceil(r)]).astype(np.int64)
    kk = np.clip(k, 0, curve.n_levels - 1)
    ok = (k == kk) & (np.abs(curve.demand_levels[kk] - demand) <= curve.delta / 2.0 + 1e-9)
    cost = np.where(ok, np.take_along_axis(prices[None], kk, axis=-1) * volume, INF)
    best = np.take_along_axis(kk, np.argmin(cost, axis=0)[None], axis=0)[0]
    return np.where(ok.any(axis=0), best, -1)


def _greedy_point(inst: ProcurementInstance, d_da: np.ndarray, k_mat: np.ndarray):
    """Exact best objective at fixed volumes: bracket choices decouple.

    At a cell boundary two brackets are feasible; since expected cost and
    CVaR are both nondecreasing in every scenario cost, picking the cheaper
    contribution per market and period is optimal.
    """
    d_bal = k_mat - d_da[None, :]
    b_sel = _cheapest_cells(
        inst.da_curve, inst.da_curve.prices, inst.exogenous.d_sys_base + d_da, d_da
    )
    f_sel = _cheapest_cells(
        inst.bal_curves[0], inst.bal_prices, inst.exogenous.d_imb_base + d_bal, d_bal
    )
    if (b_sel < 0).any() or (f_sel < 0).any():
        return None
    return evaluate_selection(inst, d_da, b_sel, f_sel)[0], b_sel, f_sel


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
    grid = inst.bal_curves[0]
    edges = np.append(grid.demand_levels - grid.delta / 2.0, grid.demand_levels[-1] + grid.delta / 2.0)
    imb_demand = inst.exogenous.d_imb_base + k_mat  # (S, T) before d_da

    bmin, bmax = _reachable(inst.da_curve, inst.exogenous.d_sys_base + lo, inst.exogenous.d_sys_base + hi)
    reach = [range(a, b + 1) for a, b in zip(bmin, bmax)]

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
            d_bp = imb_demand[:, t, None] - edges
            cuts = {a, z, *(float(v) for v in d_bp[(a < d_bp) & (d_bp < z)])}
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
            try:
                f_sel = bracket_indices(grid, imb_demand - mid)
            except ValueError:  # pragma: no cover - coverage was checked upfront
                continue
            lam_bal = inst.bal_prices[np.arange(S)[:, None], f_sel]
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
    return Solution(
        status="optimal",
        objective=objective,
        expected_cost=expected,
        cvar=cvar,
        gap=0.0,
        d_da=d_da,
        d_bal=k_mat - d_da[None, :],
        u_da=_one_hot(b_sel, inst.da_curve.n_levels),
        u_bal=_one_hot(f_sel, grid.n_levels),
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
    """An instance written by ``write_instance``; a document that lacks one
    of its fields raises ``ValueError``."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
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
    except KeyError as exc:
        raise ValueError(f"instance JSON lacks field {exc}") from exc
