"""Shared instance generators and the loop-built references for the
procurement, simplex, branch-and-bound and forecast tests."""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from dpmeter.domain import LoadSeries, day_of_week, settlement_period, week_of_year
from dpmeter.forecast import HIDDEN_WIDTH, LAG_OFFSETS, MlpModel, TrainConfig
from dpmeter.market import PriceCurve, SystemExogenous
from dpmeter.milp import LinearMip, MilpResult, MipBuilder, SimplexSolver, check_feasibility
from dpmeter.procurement import INF, MilpModel, ProcurementInstance, _cost_bound
from dpmeter.scenario import ErrorScenarioSet


def uniform_curve(lo: float, hi: float, n_levels: int, prices) -> PriceCurve:
    """Curve whose coverage hull is exactly [lo, hi]."""
    delta = (hi - lo) / n_levels
    levels = lo + delta / 2.0 + delta * np.arange(n_levels)
    return PriceCurve(levels, np.asarray(prices, dtype=float), delta)


def random_instance(rng, T=None, S=None, B=None, F=None, beta=None, alpha=0.9):
    """Small random procurement instance with guaranteed grid coverage."""
    T = T or int(rng.integers(1, 4))
    S = S or int(rng.integers(1, 3))
    B = B or int(rng.integers(1, 4))
    F = F or int(rng.integers(1, 4))
    beta = beta if beta is not None else float(rng.uniform(0, 2))
    d_fore = rng.uniform(5, 20, T)
    errors = rng.normal(0, rng.uniform(0.5, 2.0), (S, T))
    probs = rng.uniform(0.5, 1.5, S)
    probs /= probs.sum()
    scen = ErrorScenarioSet(errors, probs)
    lo = -rng.uniform(2, 8, T)
    hi = rng.uniform(2, 8, T)
    d_sys = rng.uniform(50, 80, T)
    d_imb = rng.normal(0, 3, (S, T))
    k_mat = d_fore[None, :] + errors
    da_lo = float((d_sys + lo).min()) - 1.0
    da_hi = float((d_sys + hi).max()) + 1.0
    da_prices = np.sort(rng.uniform(20, 90, B))
    da_curve = uniform_curve(da_lo, da_hi, B, da_prices)
    imb_lo = float((d_imb + k_mat - hi[None, :]).min()) - 1.0
    imb_hi = float((d_imb + k_mat - lo[None, :]).max()) + 1.0
    base_prices = np.sort(rng.uniform(10, 120, F))
    bal_curves = tuple(
        uniform_curve(imb_lo, imb_hi, F, base_prices + rng.normal(0, 5))
        for _ in range(S)
    )
    return ProcurementInstance(
        d_fore=d_fore,
        scenarios=scen,
        da_curve=da_curve,
        bal_curves=bal_curves,
        exogenous=SystemExogenous(d_sys, d_imb),
        beta=beta,
        alpha=alpha,
        d_da_lower=lo,
        d_da_upper=hi,
    )


def highs_objective(lp: LinearMip) -> float:
    """Optimum of ``lp`` by scipy's HiGHS MILP solver, with the offset."""
    rm = lp.row_matrix
    A = csr_matrix((rm.data, rm.indices, rm.indptr), shape=(lp.n_rows, lp.n_cols))
    ref = milp(
        c=lp.obj,
        constraints=LinearConstraint(A, lp.row_lower, lp.row_upper),
        integrality=lp.is_integer.astype(int),
        bounds=Bounds(lp.col_lower, lp.col_upper),
        options={"mip_rel_gap": 1e-9},
    )
    assert ref.status == 0, ref.message
    return float(ref.fun) + lp.obj_offset


def loop_check_coverage(inst: ProcurementInstance) -> None:
    """Per-period loop form of ``procurement._check_coverage``."""
    tol = 1e-9
    k_mat = inst.realized_demand()
    for t in range(inst.n_periods):
        lo = inst.exogenous.d_sys_base[t] + inst.d_da_lower[t]
        hi = inst.exogenous.d_sys_base[t] + inst.d_da_upper[t]
        if lo < inst.da_curve.lo - tol or hi > inst.da_curve.hi + tol:
            raise ValueError(
                f"day-ahead price grid does not cover period {t}: "
                f"reachable demand [{lo:.6g}, {hi:.6g}] vs curve "
                f"[{inst.da_curve.lo:.6g}, {inst.da_curve.hi:.6g}]"
            )
    for s in range(inst.n_scenarios):
        curve = inst.bal_curves[s]
        for t in range(inst.n_periods):
            lo = inst.exogenous.d_imb_base[s, t] + k_mat[s, t] - inst.d_da_upper[t]
            hi = inst.exogenous.d_imb_base[s, t] + k_mat[s, t] - inst.d_da_lower[t]
            if lo < curve.lo - tol or hi > curve.hi + tol:
                raise ValueError(
                    f"balancing price grid does not cover scenario {s}, period {t}: "
                    f"reachable imbalance [{lo:.6g}, {hi:.6g}] vs curve "
                    f"[{curve.lo:.6g}, {curve.hi:.6g}]"
                )


def loop_build_milp(inst: ProcurementInstance) -> MilpModel:
    """Per-entry loop form of ``procurement.build_milp``, kept as the
    reference its array form must match bit for bit (names aside)."""
    loop_check_coverage(inst)
    T, S = inst.n_periods, inst.n_scenarios
    B = inst.da_curve.n_levels
    F = inst.bal_curves[0].n_levels
    k_mat = inst.realized_demand()
    lo, hi = inst.d_da_lower, inst.d_da_upper
    big_m = hi - lo
    probs = inst.scenarios.probabilities
    m_cost = _cost_bound(inst)

    b = MipBuilder()
    off_d_da = b.n_cols
    for t in range(T):
        b.add_col(f"d_da[{t}]", lo[t], hi[t])
    off_d_bal = b.n_cols
    for s in range(S):
        for t in range(T):
            b.add_col(f"d_bal[{s},{t}]", k_mat[s, t] - hi[t], k_mat[s, t] - lo[t])
    col_zeta = b.add_col("zeta", -m_cost, m_cost, obj=inst.beta)
    off_eta = b.n_cols
    for s in range(S):
        b.add_col(f"eta[{s}]", 0.0, 2.0 * m_cost, obj=inst.beta * probs[s] / (1.0 - inst.alpha))
    off_c_da = b.n_cols
    for t in range(T):
        for bb in range(B):
            b.add_col(f"c_da[{t},{bb}]", 0.0, big_m[t])
    off_c_bal = b.n_cols
    for s in range(S):
        for t in range(T):
            for f in range(F):
                b.add_col(f"c_bal[{s},{t},{f}]", 0.0, big_m[t])
    off_u_da = b.n_cols
    for t in range(T):
        for bb in range(B):
            b.add_col(f"u_da[{t},{bb}]", 0.0, 1.0, integer=True)
    off_u_bal = b.n_cols
    for s in range(S):
        for t in range(T):
            for f in range(F):
                b.add_col(f"u_bal[{s},{t},{f}]", 0.0, 1.0, integer=True)

    model = MilpModel(
        lp=None,  # filled below
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

    da_prices = inst.da_curve.prices
    da_levels = inst.da_curve.demand_levels
    half_da = inst.da_curve.delta / 2.0

    # objective: day-ahead cost via c_da + lo * u_da
    for t in range(T):
        for bb in range(B):
            b.add_obj(model.c_da_col(t, bb), da_prices[bb])
            b.add_obj(model.u_da_col(t, bb), da_prices[bb] * lo[t])
    for s in range(S):
        prices_s = inst.bal_curves[s].prices
        for t in range(T):
            lo_bal = k_mat[s, t] - hi[t]
            for f in range(F):
                b.add_obj(model.c_bal_col(s, t, f), probs[s] * prices_s[f])
                b.add_obj(model.u_bal_col(s, t, f), probs[s] * prices_s[f] * lo_bal)

    # balance: d_da + d_bal = forecast + error
    for s in range(S):
        for t in range(T):
            b.add_row(
                f"balance[{s},{t}]",
                {off_d_da + t: 1.0, model.d_bal_col(s, t): 1.0},
                k_mat[s, t],
                k_mat[s, t],
            )

    # CVaR rows: scenario cost (via linearized terms) - zeta <= eta_s
    for s in range(S):
        prices_s = inst.bal_curves[s].prices
        coeffs = {col_zeta: -1.0, off_eta + s: -1.0}
        for t in range(T):
            for bb in range(B):
                coeffs[model.c_da_col(t, bb)] = da_prices[bb]
                coeffs[model.u_da_col(t, bb)] = da_prices[bb] * lo[t]
            lo_bal = k_mat[s, t] - hi[t]
            for f in range(F):
                coeffs[model.c_bal_col(s, t, f)] = prices_s[f]
                coeffs[model.u_bal_col(s, t, f)] = prices_s[f] * lo_bal
        b.add_row(f"cvar[{s}]", coeffs, -INF, 0.0)

    # bracket selection: chosen level within half a spacing of total demand
    for t in range(T):
        coeffs = {model.u_da_col(t, bb): float(da_levels[bb]) for bb in range(B)}
        coeffs[off_d_da + t] = -1.0
        base = inst.exogenous.d_sys_base[t]
        b.add_row(f"bracket_da[{t}]", coeffs, base - half_da, base + half_da)
    for s in range(S):
        levels_s = inst.bal_curves[s].demand_levels
        half_bal = inst.bal_curves[s].delta / 2.0
        for t in range(T):
            coeffs = {model.u_bal_col(s, t, f): float(levels_s[f]) for f in range(F)}
            coeffs[model.d_bal_col(s, t)] = -1.0
            base = inst.exogenous.d_imb_base[s, t]
            b.add_row(f"bracket_bal[{s},{t}]", coeffs, base - half_bal, base + half_bal)

    # exactly one bracket per market and period
    for t in range(T):
        b.add_row(
            f"sos1_da[{t}]", {model.u_da_col(t, bb): 1.0 for bb in range(B)}, 1.0, 1.0
        )
    for s in range(S):
        for t in range(T):
            b.add_row(
                f"sos1_bal[{s},{t}]",
                {model.u_bal_col(s, t, f): 1.0 for f in range(F)},
                1.0,
                1.0,
            )

    # linearization of u * (d - lower bound); c >= 0 lives in the column bound
    for t in range(T):
        for bb in range(B):
            c_col = model.c_da_col(t, bb)
            u_col = model.u_da_col(t, bb)
            b.add_row(f"lin_ub_u_da[{t},{bb}]", {c_col: 1.0, u_col: -big_m[t]}, -INF, 0.0)
            b.add_row(f"lin_ub_d_da[{t},{bb}]", {c_col: 1.0, off_d_da + t: -1.0}, -INF, -lo[t])
            b.add_row(
                f"lin_lb_da[{t},{bb}]",
                {c_col: 1.0, off_d_da + t: -1.0, u_col: -big_m[t]},
                -lo[t] - big_m[t],
                INF,
            )
    for s in range(S):
        for t in range(T):
            lo_bal = k_mat[s, t] - hi[t]
            for f in range(F):
                c_col = model.c_bal_col(s, t, f)
                u_col = model.u_bal_col(s, t, f)
                d_col = model.d_bal_col(s, t)
                b.add_row(
                    f"lin_ub_u_bal[{s},{t},{f}]", {c_col: 1.0, u_col: -big_m[t]}, -INF, 0.0
                )
                b.add_row(
                    f"lin_ub_d_bal[{s},{t},{f}]", {c_col: 1.0, d_col: -1.0}, -INF, -lo_bal
                )
                b.add_row(
                    f"lin_lb_bal[{s},{t},{f}]",
                    {c_col: 1.0, d_col: -1.0, u_col: -big_m[t]},
                    -lo_bal - big_m[t],
                    INF,
                )

    model.lp = b.build()
    return model


def loop_reachable(curve: PriceCurve, demand_lo: float, demand_hi: float) -> tuple[int, int]:
    """Scalar form of ``procurement._reachable``."""
    tol = 1e-9
    lo_idx = int(np.ceil((demand_lo - curve.delta / 2.0 - curve.demand_levels[0]) / curve.delta - tol))
    hi_idx = int(np.floor((demand_hi + curve.delta / 2.0 - curve.demand_levels[0]) / curve.delta + tol))
    return max(lo_idx, 0), min(hi_idx, curve.n_levels - 1)


class LoopReduction(NamedTuple):
    lo: np.ndarray  # tightened d_da bounds (T,)
    hi: np.ndarray
    da_range: list[tuple[int, int]]  # inclusive reachable bracket range per t
    bal_range: list[list[tuple[int, int]]]  # per s, per t
    infeasible_group: str | None = None


def loop_reduce(inst: ProcurementInstance) -> LoopReduction:
    """Per-(s, t) loop form of ``procurement._reduce``: each sweep tightens
    the bounds group by group, so a later group sees an earlier one's move."""
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
            bmin, bmax = loop_reachable(inst.da_curve, base + lo[t], base + hi[t])
            if bmin > bmax:
                return LoopReduction(lo, hi, da_range, bal_range, f"bracket_da[{t}]")
            da_range[t] = (bmin, bmax)
            if bmin == bmax:
                level = inst.da_curve.demand_levels[bmin]
                new_lo = max(lo[t], level - inst.da_curve.delta / 2.0 - base)
                new_hi = min(hi[t], level + inst.da_curve.delta / 2.0 - base)
                if new_lo > lo[t] + 1e-12 or new_hi < hi[t] - 1e-12:
                    lo[t], hi[t] = new_lo, new_hi
                    changed = True
                if lo[t] > hi[t] + 1e-9:
                    return LoopReduction(lo, hi, da_range, bal_range, f"bracket_da[{t}]")
        for s in range(S):
            curve = inst.bal_curves[s]
            for t in range(T):
                base = inst.exogenous.d_imb_base[s, t]
                bal_lo = k_mat[s, t] - hi[t]
                bal_hi = k_mat[s, t] - lo[t]
                fmin, fmax = loop_reachable(curve, base + bal_lo, base + bal_hi)
                if fmin > fmax:
                    return LoopReduction(lo, hi, da_range, bal_range, f"bracket_bal[{s},{t}]")
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
                        return LoopReduction(lo, hi, da_range, bal_range, f"bracket_bal[{s},{t}]")
        if not changed:
            break
    return LoopReduction(lo, hi, da_range, bal_range)


def loop_reduced_model(inst: ProcurementInstance, red: LoopReduction) -> LinearMip:
    """Per-entry ``MipBuilder`` form of the reduced model ``procurement.solve``
    branches on, kept as the reference its array build must match bit for
    bit (names aside)."""
    T, S = inst.n_periods, inst.n_scenarios
    k_mat = inst.realized_demand()
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

    return b.build()


def loop_basis_matrix(solver) -> np.ndarray:
    """Column-by-column form of ``SimplexSolver._basis_matrix``."""
    B = np.zeros((solver.m, solver.m))
    for k, j in enumerate(solver.basis):
        j = int(j)
        if j < solver.n:
            rows, vals = solver.A.column(j)
            B[rows, k] = vals
        else:
            B[j - solver.n, k] = -1.0
    return B


@dataclass
class _Pending:
    fixes: list[tuple[int, float, float]]
    basis: np.ndarray
    vstat: np.ndarray
    parent_bound: float


def fixes_solve_milp(lp: LinearMip, *, gap_tol=1e-6, heuristic=None, max_nodes=500_000):
    """``branch_bound.solve_milp`` with each node kept as a list of
    ``(col, lo, hi)`` fixes that a pop replays over the original bounds, a
    solve before the loop and binaries fixed at 0 or 1.  General integers
    branch from the original bounds, so this form is a reference for
    binary models only."""
    int_tol = 1e-7
    int_cols = lp.integer_columns()
    solver = SimplexSolver(lp)
    orig_lb = lp.col_lower.copy()
    orig_ub = lp.col_upper.copy()

    best_obj = INF
    best_x = None
    worst_pruned = INF
    n_nodes = 0

    def note_pruned(bound):
        nonlocal worst_pruned
        worst_pruned = min(worst_pruned, bound)

    def try_candidate(obj_hint, x_c):
        nonlocal best_obj, best_x
        if obj_hint >= best_obj - 1e-12:
            return
        obj_c = lp.objective_value(x_c)
        if obj_c < best_obj - 1e-12 and check_feasibility(lp, x_c, integer_tol=int_tol) <= 1e-6:
            best_obj = obj_c
            best_x = x_c.copy()

    def reset_bounds(fixes):
        for c in int_cols:
            solver.set_col_bounds(int(c), orig_lb[c], orig_ub[c])
        for c, lo, hi in fixes:
            solver.set_col_bounds(c, lo, hi)

    stack = []
    fixes = []
    res = solver.solve()
    n_nodes = 1
    lp_iterations = res.iterations
    if res.status == "infeasible":
        return MilpResult(
            "infeasible", INF, None, INF, n_nodes, lp_iterations, solver.refactorizations,
            res.infeasible_row,
        )
    if res.status == "unbounded":
        raise ValueError("relaxation is unbounded; the model is missing finite bounds")

    while True:
        if res is not None:
            bound = res.objective
            x = res.x
            frac = np.abs(x[int_cols] - np.round(x[int_cols])) if int_cols.size else np.zeros(0)
            if bound >= best_obj - gap_tol:
                note_pruned(bound)
                res = None
            elif int_cols.size == 0 or frac.max(initial=0.0) <= int_tol:
                cand = x.copy()
                if int_cols.size:
                    cand[int_cols] = np.round(cand[int_cols])
                if bound < best_obj:
                    best_obj = bound
                    best_x = cand
                res = None
            else:
                if heuristic is not None:
                    proposal = heuristic(x)
                    if proposal is not None:
                        try_candidate(*proposal)
                if bound >= best_obj - gap_tol:
                    note_pruned(bound)
                    res = None
                else:
                    dist = np.minimum(frac, 1.0 - frac)
                    j = int(int_cols[np.argmax(dist)])
                    near = float(np.round(x[j]))
                    if orig_ub[j] - orig_lb[j] == 1.0 and orig_lb[j] == 0.0:
                        near_fix = (j, near, near)
                        far_fix = (j, 1.0 - near, 1.0 - near)
                    else:
                        lo_child = (j, orig_lb[j], float(np.floor(x[j])))
                        hi_child = (j, float(np.ceil(x[j])), orig_ub[j])
                        near_fix, far_fix = (
                            (hi_child, lo_child) if near >= x[j] else (lo_child, hi_child)
                        )
                    basis, vstat = solver.snapshot()
                    stack.append(_Pending(fixes + [far_fix], basis, vstat, bound))
                    fixes = fixes + [near_fix]
                    solver.set_col_bounds(*near_fix)
                    if n_nodes >= max_nodes:
                        raise RuntimeError(f"branch and bound exceeded {max_nodes} nodes")
                    res = solver.solve()
                    n_nodes += 1
                    lp_iterations += res.iterations
                    if res.status == "unbounded":
                        raise ValueError("child relaxation unbounded")
                    if res.status == "infeasible":
                        res = None
                    continue

        while res is None and stack:
            node = stack.pop()
            if node.parent_bound >= best_obj - gap_tol:
                note_pruned(node.parent_bound)
                continue
            fixes = node.fixes
            reset_bounds(fixes)
            solver.load_state(node.basis, node.vstat)
            if n_nodes >= max_nodes:
                raise RuntimeError(f"branch and bound exceeded {max_nodes} nodes")
            res = solver.solve()
            n_nodes += 1
            lp_iterations += res.iterations
            if res.status == "unbounded":
                raise ValueError("sibling relaxation unbounded")
            if res.status == "infeasible":
                res = None
        if res is None and not stack:
            break

    counts = (n_nodes, lp_iterations, solver.refactorizations)
    if best_x is None:
        return MilpResult("infeasible", INF, None, INF, *counts)
    gap = max(0.0, best_obj - worst_pruned) if np.isfinite(worst_pruned) else 0.0
    return MilpResult("optimal", best_obj, best_x, gap, *counts)


def loop_build_features(history: LoadSeries, t: int) -> np.ndarray:
    """Per-lag loop form of ``forecast.build_features`` for one period."""
    lo_needed = history.start + max(LAG_OFFSETS)
    hi_allowed = history.end - 1 + min(LAG_OFFSETS)
    if not lo_needed <= t <= hi_allowed:
        raise ValueError(
            f"period {t} lacks lag history (usable range [{lo_needed}, {hi_allowed}])"
        )
    lags = np.array([history.values[t - off - history.start] for off in LAG_OFFSETS])
    calendar = [week_of_year(t), day_of_week(t), settlement_period(t)]
    return np.concatenate([calendar, lags])


def loop_train(X: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> MlpModel:
    """``forecast.train`` with each mini-batch standardized on its own and
    its gradient written out term by term."""
    n, d = X.shape
    x_mean = X.mean(axis=0)
    x_std = X.std(axis=0)
    x_std = np.where(x_std < 1e-8, 1.0, x_std)
    y_mean = float(y.mean())
    y_std = float(y.std())
    y_std = y_std if y_std > 1e-8 else 1.0

    rng = np.random.default_rng(cfg.seed)
    model = MlpModel(
        w1=rng.normal(0.0, np.sqrt(2.0 / d), (d, HIDDEN_WIDTH)),
        b1=np.zeros(HIDDEN_WIDTH),
        w2=rng.normal(0.0, np.sqrt(2.0 / HIDDEN_WIDTH), HIDDEN_WIDTH),
        b2=0.0,
        x_mean=x_mean,
        x_std=x_std,
        y_mean=y_mean,
        y_std=y_std,
    )

    def forward(xs):
        z1 = xs @ model.w1 + model.b1
        return z1, np.maximum(z1, 0.0) @ model.w2 + model.b2

    prev = None
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xs = (X[idx] - model.x_mean) / model.x_std
            ys = (y[idx] - model.y_mean) / model.y_std
            z1, pred = forward(xs)
            r = pred - ys
            dl_dpred = 2.0 * r / xs.shape[0]
            a1 = np.maximum(z1, 0.0)
            grad_w2 = a1.T @ dl_dpred
            grad_b2 = float(dl_dpred.sum())
            dz1 = np.outer(dl_dpred, model.w2) * (z1 > 0)
            grad_w1 = xs.T @ dz1
            grad_b1 = dz1.sum(axis=0)
            model.w1 -= cfg.learning_rate * grad_w1
            model.b1 -= cfg.learning_rate * grad_b1
            model.w2 -= cfg.learning_rate * grad_w2
            model.b2 -= cfg.learning_rate * grad_b2
        _, pred = forward((X - x_mean) / x_std)
        loss = float(((pred - (y - y_mean) / y_std) ** 2).mean()) * y_std**2
        model.epoch_losses.append(loss)
        if prev is not None and abs(prev - loss) < cfg.early_stop_tol * max(
            model.epoch_losses[0], 1e-12
        ):
            break
        prev = loss
    return model
