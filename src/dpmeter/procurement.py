"""Two-stage risk-constrained procurement for a price-making LSE.

The LSE buys ``d_da`` per period in the day-ahead market and settles the
realised forecast error ``d_bal = forecast + error - d_da`` per scenario in
the balancing market.  Both prices depend on total market demand through
piecewise-linear curves selected by binary bracket variables; bilinear
price-volume products are replaced by auxiliary columns with the standard
four-constraint linearization, applied to variables shifted by their lower
bound so signed volumes stay exact.  Risk aversion enters as
``beta * CVaR_alpha`` of the per-scenario cost.

``build_milp`` is the one pass over an instance: it checks that every price
grid covers the reachable demand, clips each period's volume range to the
grids, bounds the scenario costs and lays out the complete model's columns.
``MilpModel.lp`` assembles that model when first read; tests and checks
read it, and the run-time ``solve`` never does.  ``solve`` builds and
branches on a smaller model with the same optimum.  Every cost at period t
depends on the one scalar ``d_da[t]``, so ``solve`` cuts each period's
clipped range at the day-ahead and every scenario's balancing bracket edges
into cells, inside which all brackets are fixed and every scenario cost is
linear.  A binary and a continuous column per cell (a multiple-choice
model, Balas 1979) make the LP relaxation the convex hull of each period's
cost graph, with no big-M rows.  One row assembler builds both models from
numpy arrays, and the cell model's optimum is mapped back into the complete
model's columns.  All balancing curves share one demand grid.
``brute_force_oracle`` independently minimizes over an explicit partition
of the decision box for small instances.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .domain import _freeze
from .market import _SPACING_TOL, PriceCurve, SystemExogenous, bracket_indices
from .milp import LinearMip, MilpResult, solve_milp
from .milp._sparse import SparseMatrix
from .milp.model import INF
from .scenario import ErrorScenarioSet


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
    costs, probs = np.asarray(costs, dtype=float), np.asarray(probs, dtype=float)
    if not (np.isfinite(costs).all() and np.isfinite(probs).all()):
        raise ValueError("costs and probabilities must be finite")
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
        if not np.isfinite(self.d_fore).all():
            raise ValueError("forecast must be finite")
        if not (np.isfinite(self.beta) and self.beta >= 0):
            raise ValueError("beta must be finite and >= 0")
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


# --------------------------------------------------------------------------
# Full MILP model
# --------------------------------------------------------------------------


class _Rows:
    """The rows of a ``LinearMip`` in blocks: each block's bounds, and the
    (row, column, value) entries of the matrix, exact zeros left out."""

    def __init__(self):
        self.lower, self.upper, self.entries, self.n = [], [], [], 0

    def block(self, shape: tuple[int, ...], lower, upper) -> np.ndarray:
        """Indices of the next block of rows, which get the given bounds."""
        self.lower.append(np.broadcast_to(lower, shape).ravel())
        self.upper.append(np.broadcast_to(upper, shape).ravel())
        start, self.n = self.n, self.n + self.lower[-1].size
        return start + np.arange(self.lower[-1].size).reshape(shape)

    def add(self, row, col, val) -> None:
        self.entries.append(tuple(a.ravel() for a in np.broadcast_arrays(row, col, val)))

    def mip(self, col_lower, col_upper, obj, is_integer, obj_offset: float = 0.0) -> LinearMip:
        """The model of these rows over columns with the given arrays."""
        ri, ci, v = (np.concatenate(parts) for parts in zip(*self.entries))
        keep = v != 0.0
        matrix = SparseMatrix.from_coo(self.n, col_lower.size, ri[keep], ci[keep], v[keep])
        lower, upper = np.concatenate(self.lower), np.concatenate(self.upper)
        return LinearMip(col_lower, col_upper, obj, is_integer, matrix, lower, upper, obj_offset)


@dataclass
class MilpModel:
    """Column layout of the complete linearized model, each period's d_da
    range clipped to the price grids (``lo``, ``hi``) and the bound
    ``m_cost`` on any scenario cost; ``lp``, the model itself, is
    assembled from the instance when first read."""

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
    lo: np.ndarray  # (T,)
    hi: np.ndarray  # (T,)
    m_cost: float

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

    @cached_property
    def lp(self) -> LinearMip:
        """The exact MILP: objective, balance, CVaR, bracket selection,
        SOS1 rows, and the shifted four-row linearization per bilinear term.

        Columns, in order: ``d_da[t]``, ``d_bal[s,t]``, ``zeta``, ``eta[s]``,
        ``c_da[t,b]``, ``c_bal[s,t,f]``, ``u_da[t,b]``, ``u_bal[s,t,f]``.  Rows,
        in order: ``balance[s,t]``, ``cvar[s]``, ``bracket_da[t]``,
        ``bracket_bal[s,t]``, ``sos1_da[t]``, ``sos1_bal[s,t]``, then three
        linearization rows per ``(t,b)`` and per ``(s,t,f)``.  Each block is
        filled with index arithmetic; exact-zero coefficients are left out of
        the matrix, and the model carries no names.  ``d_da`` keeps the
        instance's bounds, not the clipped ``lo`` and ``hi``.
        """
        inst, T, S, B, F = self.instance, self.T, self.S, self.B, self.F
        grid = inst.bal_curves[0]
        k_mat, big_m, m_cost = self.k_mat, self.big_m, self.m_cost
        lo, hi = inst.d_da_lower, inst.d_da_upper
        probs = inst.scenarios.probabilities
        lo_bal = k_mat - hi  # (S, T) lower bound of d_bal

        col_zeta, off_u_da = self.col_zeta, self.off_u_da
        n_cols = self.off_u_bal + S * T * F
        d_da = self.off_d_da + np.arange(T)
        d_bal = self.off_d_bal + np.arange(S * T).reshape(S, T)
        eta = self.off_eta + np.arange(S)
        c_da = self.off_c_da + np.arange(T * B).reshape(T, B)
        c_bal = self.off_c_bal + np.arange(S * T * F).reshape(S, T, F)
        u_da = c_da + (off_u_da - self.off_c_da)
        u_bal = c_bal + (self.off_u_bal - self.off_c_bal)

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

        rows = _Rows()
        # balance: d_da + d_bal = forecast + error
        r = rows.block((S, T), k_mat, k_mat)
        rows.add(r, d_da, 1.0)
        rows.add(r, d_bal, 1.0)

        # CVaR rows: scenario cost (via linearized terms) - zeta <= eta_s
        r = rows.block((S,), -INF, 0.0)
        rows.add(r, col_zeta, -1.0)
        rows.add(r, eta, -1.0)
        r = r[:, None, None]
        rows.add(r, c_da, da_prices)
        rows.add(r, u_da, cost_u_da)
        rows.add(r, c_bal, bal_prices[:, None, :])
        rows.add(r, u_bal, cost_u_bal)

        # bracket selection: chosen level within half a spacing of total demand
        half_da = inst.da_curve.delta / 2.0
        base = inst.exogenous.d_sys_base
        r = rows.block((T,), base - half_da, base + half_da)
        rows.add(r[:, None], u_da, inst.da_curve.demand_levels)
        rows.add(r, d_da, -1.0)
        half_bal = grid.delta / 2.0
        base = inst.exogenous.d_imb_base
        r = rows.block((S, T), base - half_bal, base + half_bal)
        rows.add(r[:, :, None], u_bal, grid.demand_levels)
        rows.add(r, d_bal, -1.0)

        # exactly one bracket per market and period
        rows.add(rows.block((T,), 1.0, 1.0)[:, None], u_da, 1.0)
        rows.add(rows.block((S, T), 1.0, 1.0)[:, :, None], u_bal, 1.0)

        # linearization of u * (d - lower bound), three rows per term: c <= M u,
        # c <= d - lower, c >= d - lower - M (1 - u); c >= 0 is the column bound
        for c, u, d, lower, m in (
            (c_da, u_da, d_da[:, None], lo[:, None], big_m[:, None]),
            (c_bal, u_bal, d_bal[:, :, None], lo_bal[:, :, None], big_m[None, :, None]),
        ):
            r = rows.block(
                c.shape + (3,),
                np.stack(np.broadcast_arrays(-INF, -INF, -lower - m), axis=-1),
                np.stack(np.broadcast_arrays(0.0, -lower, INF), axis=-1),
            )
            ub_u, ub_d, lb = r[..., 0], r[..., 1], r[..., 2]
            rows.add(ub_u, c, 1.0)
            rows.add(ub_u, u, -m)
            rows.add(ub_d, c, 1.0)
            rows.add(ub_d, d, -1.0)
            rows.add(lb, c, 1.0)
            rows.add(lb, d, -1.0)
            rows.add(lb, u, -m)

        return rows.mip(col_lower, col_upper, obj, is_integer)


def _volume_range(inst: ProcurementInstance) -> tuple[np.ndarray, np.ndarray]:
    """Each period's d_da range clipped to the demand every price grid covers.

    Raises for the first period whose reachable demand leaves a grid by
    more than the bracket tolerance ``_SPACING_TOL``: day-ahead periods
    first, then the balancing scenarios, scenario-major.  A grid that misses
    by less clips the range, and a period that clipping leaves empty by more
    than it raises too; a smaller crossing is closed at ``hi``."""
    tol = _SPACING_TOL
    da, grid = inst.da_curve, inst.bal_curves[0]
    sys_base = inst.exogenous.d_sys_base
    lower, upper = inst.d_da_lower, inst.d_da_upper
    da_lo, da_hi = sys_base + lower, sys_base + upper
    bad = np.flatnonzero((da_lo < da.lo - tol) | (da_hi > da.hi + tol))
    if bad.size:
        t = int(bad[0])
        raise ValueError(
            f"day-ahead price grid does not cover period {t}: "
            f"reachable demand [{da_lo[t]:.6g}, {da_hi[t]:.6g}] vs curve "
            f"[{da.lo:.6g}, {da.hi:.6g}]"
        )
    imb = inst.exogenous.d_imb_base + inst.realized_demand()  # (S, T) before d_da
    bal_lo, bal_hi = imb - upper, imb - lower
    bad = np.argwhere((bal_lo < grid.lo - tol) | (bal_hi > grid.hi + tol))
    if bad.size:
        s, t = (int(i) for i in bad[0])
        raise ValueError(
            f"balancing price grid does not cover scenario {s}, period {t}: "
            f"reachable imbalance [{bal_lo[s, t]:.6g}, {bal_hi[s, t]:.6g}] vs curve "
            f"[{grid.lo:.6g}, {grid.hi:.6g}]"
        )
    lo = np.vstack([np.maximum(lower, da.lo - sys_base), imb - grid.hi]).max(axis=0)
    hi = np.vstack([np.minimum(upper, da.hi - sys_base), imb - grid.lo]).min(axis=0)
    bad = np.flatnonzero(lo > hi + tol)
    if bad.size:
        t = int(bad[0])
        raise ValueError(
            f"price grids leave no volume in period {t}: d_da range "
            f"[{lower[t]:.6g}, {upper[t]:.6g}] clips to [{lo[t]:.12g}, {hi[t]:.12g}]"
        )
    return np.minimum(lo, hi), hi


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
    """The exact MILP's column layout, each period's d_da range clipped to
    the price grids and the scenario cost bound: the one pass over the
    instance that ``solve`` reads.  An instance that a price grid does not
    cover, or whose clipped range is empty, raises ``ValueError`` naming the
    period.  ``MilpModel.lp`` assembles the exact model when read."""
    lo, hi = _volume_range(inst)
    T, S = inst.n_periods, inst.n_scenarios
    B, F = inst.da_curve.n_levels, inst.bal_curves[0].n_levels
    offsets = itertools.accumulate((T, S * T, 1, S, T * B, S * T * F, T * B), initial=0)
    return MilpModel(
        inst, T, S, B, F, *offsets, big_m=inst.d_da_upper - inst.d_da_lower,
        k_mat=inst.realized_demand(), lo=lo, hi=hi, m_cost=_cost_bound(inst),
    )


# --------------------------------------------------------------------------
# Solution container
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Solution:
    status: str  # "optimal" | "infeasible" | "node_limit" | "iteration_limit"
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
    lp_iterations: int = 0  # simplex pivots and bound flips over all nodes
    refactorizations: int = 0  # basis inversions over all nodes
    phase1_iterations: int = 0  # of ``lp_iterations``, those taken in phase 1
    bland_switches: int = 0  # node solves that switched to Bland's rule
    root_iterations: int = 0  # of ``lp_iterations``, those of the root node
    lp_point: np.ndarray | None = None  # raw solver point in full-model space
    infeasible_row: str | None = None


_COUNTERS = (
    "n_nodes", "lp_iterations", "refactorizations", "phase1_iterations", "bland_switches",
    "root_iterations",
)


def _counters(result: MilpResult) -> dict[str, int]:
    """The solver counters a ``Solution`` takes from its search."""
    return {name: getattr(result, name) for name in _COUNTERS}


def _empty_solution(
    status: str, row: str | None = None, result: MilpResult | None = None
) -> Solution:
    """A result with no point; ``result``, the ``MilpResult`` it comes from
    when a search ran, supplies the solver counters."""
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
        **({} if result is None else _counters(result)),
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


def _one_hot(sel: np.ndarray, n: int) -> np.ndarray:
    return (sel[..., None] == np.arange(n)).astype(float)


def _solution(inst: ProcurementInstance, d_da, b_sel, f_sel, gap: float, **extra) -> Solution:
    """The optimal ``Solution`` at volumes ``d_da`` and the given brackets;
    ``extra`` sets its solver fields."""
    objective, expected, cvar, zeta, costs, eta, price_da, price_bal = evaluate_selection(
        inst, d_da, b_sel, f_sel
    )
    return Solution(
        status="optimal",
        objective=objective,
        expected_cost=expected,
        cvar=cvar,
        gap=gap,
        d_da=d_da,
        d_bal=inst.realized_demand() - d_da[None, :],
        u_da=_one_hot(b_sel, inst.da_curve.n_levels),
        u_bal=_one_hot(f_sel, inst.bal_curves[0].n_levels),
        zeta=zeta,
        eta=eta,
        scenario_costs=costs,
        price_da=price_da,
        price_bal=price_bal,
        **extra,
    )


# --------------------------------------------------------------------------
# Cell model
# --------------------------------------------------------------------------


def _edges(curve: PriceCurve) -> np.ndarray:
    """The demand values where the curve's brackets meet, and its two ends."""
    return np.append(curve.demand_levels - curve.delta / 2.0, curve.hi)


def _cheapest_cells(curve: PriceCurve, prices: np.ndarray, demand, volume) -> np.ndarray:
    """Per entry, the bracket whose cell holds ``demand`` at the lowest cost
    ``price * volume`` (the lower one of two at a cell boundary on a tie),
    or -1 where no cell holds it.  ``prices`` is (levels,) or, with a
    (S, T) ``demand``, (S, levels)."""
    r = (demand - curve.demand_levels[0]) / curve.delta
    k = np.stack([np.floor(r), np.ceil(r)]).astype(np.int64)
    kk = np.clip(k, 0, curve.n_levels - 1)
    ok = (k == kk) & (np.abs(curve.demand_levels[kk] - demand) <= curve.delta / 2 + _SPACING_TOL)
    cost = np.where(ok, np.take_along_axis(prices[None], kk, axis=-1) * volume, INF)
    best = np.take_along_axis(kk, np.argmin(cost, axis=0)[None], axis=0)[0]
    return np.where(ok.any(axis=0), best, -1)


class _Cells(NamedTuple):
    """Each period's d_da range cut at every bracket edge: one entry per
    cell, period after period.  Inside a cell every bracket is fixed, so
    every scenario cost is linear in d_da there."""

    period: np.ndarray  # (N,) ascending
    lower: np.ndarray  # (N,) the cell is [lower, upper] in d_da
    upper: np.ndarray
    bracket_da: np.ndarray  # (N,)
    bracket_bal: np.ndarray  # (S, N)


def _cells(model: MilpModel) -> _Cells:
    """Cut each period's clipped range [lo[t], hi[t]] of ``model`` at the
    day-ahead bracket edges and at every scenario's balancing edges, sorting
    and merging points within the bracket tolerance ``_SPACING_TOL`` on one
    padded (T, edges) array.  Each cell between two cut points takes the
    brackets at its midpoint.

    At a cut point each market may take either neighbouring bracket, and
    the cheapest choice is made market by market (every scenario cost
    rises with each market's cost).  Where edges of several markets meet,
    or an edge meets lo or hi, that choice can differ from both
    neighbouring cells; the point is then a cell of its own."""
    inst, lo, hi, k_mat = model.instance, model.lo, model.hi, model.k_mat
    da, grid = inst.da_curve, inst.bal_curves[0]
    sys_base = inst.exogenous.d_sys_base
    imb = inst.exogenous.d_imb_base + k_mat  # (S, T) before d_da
    T = lo.size
    edges = np.hstack([
        _edges(da) - sys_base[:, None], (imb.T[:, :, None] - _edges(grid)).reshape(T, -1)
    ])
    inside = (edges > lo[:, None]) & (edges < hi[:, None])
    pts = np.sort(np.column_stack([lo, np.where(inside, edges, hi[:, None]), hi]), axis=1)
    starts = np.ones(pts.shape, dtype=bool)
    starts[:, 1:] = np.diff(pts, axis=1) > _SPACING_TOL
    period, j = np.nonzero(starts)
    last = np.append(period[1:] != period[:-1], True)  # the point that merged hi
    first = np.insert(last[:-1], 0, True)
    point = np.where(last, hi[period], pts[period, j])

    # the cells between consecutive points; a period of one point is [lo, hi]
    span = ~last | first
    lower = pts[period, j][span]
    upper = np.where(last, point, np.roll(point, -1))[span]
    t = period[span]
    mid = (lower + upper) / 2.0
    b_span = bracket_indices(da, sys_base[t] + mid)
    f_span = bracket_indices(grid, imb[:, t] - mid)

    # the cheapest brackets at each point, kept where no neighbour has them
    b_pt = _cheapest_cells(da, da.prices, sys_base[period] + point, point)
    f_pt = _cheapest_cells(grid, inst.bal_prices, imb[:, period] - point, k_mat[:, period] - point)
    rows = np.arange(inst.n_scenarios)[:, None]

    def priced_alike(cell: np.ndarray) -> np.ndarray:
        return (da.prices[b_pt] == da.prices[b_span[cell]]) & np.all(
            inst.bal_prices[rows, f_pt] == inst.bal_prices[rows, f_span[:, cell]], axis=0
        )

    opened = np.cumsum(span) - 1  # the cell a point opens, if it opens one
    alone = ~(span & priced_alike(opened)) & ~(~first & priced_alike(np.roll(opened, 1)))
    cells = _Cells(
        np.append(t, period[alone]),
        np.append(lower, point[alone]),
        np.append(upper, point[alone]),
        np.append(b_span, b_pt[alone]),
        np.hstack([f_span, f_pt[:, alone]]),
    )
    order = np.lexsort((cells.upper, cells.lower, cells.period))
    return _Cells(*(a[..., order] for a in cells))


def _cell_model(model: MilpModel) -> tuple[LinearMip, _Cells, np.ndarray, np.ndarray]:
    """The model ``solve`` branches on: per period, the convex hull of its
    cells' cost lines (a multiple-choice model), over ``model``'s clipped
    range ``[lo, hi]`` and with its cost bound ``m_cost``.  In cell c,
    scenario s pays ``p_da(c) * d + p_bal(s, c) * (k[s, t] - d)`` for
    ``d = d_da[t]``.

    A period with one cell prices ``d_da[t]`` linearly.  A period with
    several has, per cell c on [a_c, b_c], a binary ``z_c`` and a continuous
    ``y_c = (d_da[t] - a_c) * z_c``: its z sum to 1, ``d_da[t] = sum_c
    (a_c z_c + y_c)`` and ``y_c <= (b_c - a_c) z_c``.  So ``z_c`` carries the
    cell's cost at a_c and ``y_c`` its slope, and there is no big-M row.

    Columns: ``d_da[t]``, ``zeta``, ``eta[s]``, then ``z`` and ``y`` over the
    cells of the periods with several.  Rows: ``cvar[s]``, then per such
    period its ``sum z = 1`` row, then per such period its tie row, then
    one ``y <= width * z`` row per cell.  Exact-zero coefficients are left
    out, as in ``MilpModel.lp``.

    The root LP starts from a primal-feasible basis (a crash basis, Bixby
    1992) that is already at the CVaR optimum of its own point.  Each
    period with several cells takes the cell edge of lowest expected cost,
    ``obj[z_c]`` at ``a_c`` or ``obj[z_c] + obj[y_c] * width_c`` at ``b_c``
    (lowest index, then the lower edge, on ties): its ``sum z`` row takes
    that ``z_c``, its tie row ``d_da[t]``, and that cell's ``y`` row takes
    ``y_c`` where ``b_c`` won, so the row is tight at ``y_c = width_c``.
    Every other ``y`` row takes its own slack.  With the scenario costs at
    that point, ``zeta`` is the minimizing kink of ``cvar_kinks`` (a VaR;
    Rockafellar & Uryasev 2000, *J. Risk* 2): it is basic in the ``cvar``
    row of a scenario that costs exactly ``zeta``, each scenario that costs
    more has ``eta[s]`` basic, and every other ``cvar`` row its slack.  So
    only about ``(1 - alpha) S`` of the ``cvar`` rows start tight, as at
    the optimum, not all S.  Every other column rests at a finite bound,
    lower first: the other ``z``, ``y`` and ``eta`` at 0, a one-cell
    period's ``d_da`` at ``lo``.  Taken in the order ``sum z``, ``y``, tie
    and ``cvar`` rows (the row of ``zeta`` first), each row adds one basic
    column with a ±1 entry there, so the basis is triangular and never
    singular.  Its point is feasible: the chosen ``z`` is 1, ``d_da[t]``
    sits on an edge of that cell inside ``[lo, hi]``, each ``y`` row's
    activity is ``-width`` or 0, ``zeta`` is a scenario cost, inside
    ``[-m_cost, m_cost]``, and ``eta[s]`` is a cost difference, inside
    ``[0, 2 m_cost]``.  So the root runs no phase 1.

    Returns the model, the cells, which cells have a ``z``, and that start
    basis (m column indices, the slack of row i being ``n + i``)."""
    inst, T, S = model.instance, model.T, model.S
    cells = _cells(model)
    k_mat = model.k_mat[:, cells.period]  # (S, N)
    probs = inst.scenarios.probabilities
    m_cost = model.m_cost
    p_da = inst.da_curve.prices[cells.bracket_da]
    p_bal = inst.bal_prices[np.arange(S)[:, None], cells.bracket_bal]
    slope = p_da - p_bal  # (S, N) scenario cost per MWh of d_da
    at_lower = p_da * cells.lower + p_bal * (k_mat - cells.lower)  # (S, N) cost at a_c

    multi = np.bincount(cells.period, minlength=T)[cells.period] > 1
    one = ~multi
    periods, group = np.unique(cells.period[multi], return_inverse=True)
    n, P = group.size, periods.size
    col_zeta, eta = T, T + 1 + np.arange(S)
    z = T + 1 + S + np.arange(n)
    y = z + n
    width = (cells.upper - cells.lower)[multi]

    n_cols = T + 1 + S + 2 * n
    col_lower = np.zeros(n_cols)
    col_upper = np.ones(n_cols)  # the binaries keep these bounds
    col_lower[:T], col_upper[:T] = model.lo, model.hi
    col_lower[col_zeta], col_upper[col_zeta] = -m_cost, m_cost
    col_upper[eta] = 2.0 * m_cost
    col_upper[y] = width
    is_integer = np.zeros(n_cols, dtype=bool)
    is_integer[z] = True

    # a one-cell period's constant p_bal * k goes to the CVaR bound and the offset
    cvar_const = -(p_bal * k_mat)[:, one].sum(axis=1)
    obj = np.zeros(n_cols)
    obj[col_zeta] = inst.beta
    obj[eta] = inst.beta * probs / (1.0 - inst.alpha)
    obj[cells.period[one]] = probs @ slope[:, one]
    obj[z] = probs @ at_lower[:, multi]
    obj[y] = probs @ slope[:, multi]

    rows = _Rows()
    # CVaR rows: scenario cost - zeta <= eta_s, constants moved to the bound
    cvar = rows.block((S,), -INF, cvar_const)
    rows.add(cvar, col_zeta, -1.0)
    rows.add(cvar, eta, -1.0)
    r = cvar[:, None]
    rows.add(r, cells.period[one], slope[:, one])
    rows.add(r, z, at_lower[:, multi])
    rows.add(r, y, slope[:, multi])
    # one cell per period, the tie to d_da, and each y within its cell
    rows.add(rows.block((P,), 1.0, 1.0)[group], z, 1.0)
    tie = rows.block((P,), 0.0, 0.0)
    rows.add(tie, periods, 1.0)
    rows.add(tie[group], z, -cells.lower[multi])
    rows.add(tie[group], y, -1.0)
    cap = rows.block((n,), -INF, 0.0)
    rows.add(cap, y, 1.0)
    rows.add(cap, z, -width)

    # start basis: per period its cheapest cell edge (a_c, then b_c, per
    # cell), then the VaR split of the scenario costs at that point
    edge_cost = np.column_stack([obj[z], obj[z] + obj[y] * width]).ravel()
    edge_group = np.repeat(group, 2)
    order = np.lexsort((edge_cost, edge_group))
    pick = order[np.flatnonzero(np.diff(edge_group[order], prepend=-1))]
    cell, top = pick // 2, pick[pick % 2 == 1] // 2  # top: y at its cap
    at_cell = np.flatnonzero(multi)
    costs = (
        at_lower[:, one].sum(axis=1)
        + at_lower[:, at_cell[cell]].sum(axis=1)
        + slope[:, at_cell[top]] @ width[top]
    )
    zeta = cvar_kinks(costs, probs, inst.alpha)[1][0]
    cvar_basic = np.where(costs > zeta, eta, n_cols + cvar)
    cvar_basic[np.argmax(costs == zeta)] = col_zeta
    cap_basic = n_cols + cap
    cap_basic[top] = y[top]
    basis = np.concatenate([cvar_basic, z[cell], periods, cap_basic])

    lp = rows.mip(col_lower, col_upper, obj, is_integer, obj_offset=-float(probs @ cvar_const))
    return lp, cells, multi, basis


# --------------------------------------------------------------------------
# Solve
# --------------------------------------------------------------------------


def solve(model: MilpModel, tol: float = 1e-6) -> Solution:
    """Branch-and-bound solve of the procurement MILP to absolute gap ``tol``,
    on the cell model of ``model``, which ``build_milp`` has checked and
    clipped.  ``solve_milp`` rejects a negative or non-finite ``tol`` with
    ``ValueError``.  A search that ends without an optimum returns its
    status (``infeasible``, ``node_limit`` or ``iteration_limit``) and
    the solver counters, with no point."""
    inst = model.instance
    T, S = model.T, model.S
    lp, cells, multi, basis = _cell_model(model)
    result = solve_milp(lp, gap_tol=tol, basis=basis)
    if result.status != "optimal":
        row = f"cell model row {result.infeasible_row}" if result.infeasible_row >= 0 else None
        return _empty_solution(result.status, row, result)

    # one cell per period: the only one, or the one whose z is set
    x = result.x
    chosen = ~multi
    chosen[multi] = x[T + 1 + S : T + 1 + S + multi.sum()] > 0.5
    sel = np.flatnonzero(chosen)
    d_da = np.clip(x[:T], cells.lower[sel], cells.upper[sel])
    b_sel, f_sel = cells.bracket_da[sel], cells.bracket_bal[:, sel]
    sol = _solution(inst, d_da, b_sel, f_sel, result.gap, **_counters(result))
    # the point in the full model's columns: each chosen bracket takes the
    # whole shifted volume, and zeta and eta are the solver's
    full = np.concatenate([
        d_da, sol.d_bal.ravel(), x[T : T + 1 + S],  # d_da, d_bal, zeta, eta
        (sol.u_da * (d_da - inst.d_da_lower)[:, None]).ravel(),
        (sol.u_bal * (inst.d_da_upper - d_da)[:, None]).ravel(),
        sol.u_da.ravel(), sol.u_bal.ravel(),
    ])
    return replace(sol, lp_point=full)


# --------------------------------------------------------------------------
# Independent oracle
# --------------------------------------------------------------------------


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
    _volume_range(inst)
    T, S = inst.n_periods, inst.n_scenarios
    if T > 4 or S > 6:
        raise ValueError("oracle limited to small instances (T <= 4, S <= 6)")
    k_mat = inst.realized_demand()
    probs = inst.scenarios.probabilities
    lo, hi = inst.d_da_lower, inst.d_da_upper
    da_levels = inst.da_curve.demand_levels
    half_da = inst.da_curve.delta / 2.0
    grid = inst.bal_curves[0]
    edges = _edges(grid)
    imb_demand = inst.exogenous.d_imb_base + k_mat  # (S, T) before d_da

    bmin = bracket_indices(inst.da_curve, inst.exogenous.d_sys_base + lo)
    bmax = bracket_indices(inst.da_curve, inst.exogenous.d_sys_base + hi)
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
    return _solution(inst, *best, 0.0)


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
    elif levels.size < 2:
        raise ValueError("a price curve with fewer than two levels needs field 'delta'")
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
