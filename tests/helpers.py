"""Shared instance generators and the loop-built reference model for the
procurement tests."""

import numpy as np

from dpmeter.market import PriceCurve, SystemExogenous
from dpmeter.milp import MipBuilder
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
