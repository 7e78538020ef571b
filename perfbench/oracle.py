"""Checks computed outside dpmeter: numpy recomputations and HiGHS.

Nothing here calls the dpmeter function whose output it checks; each
quantity is rebuilt from the inputs and the returned raw values.
"""

from __future__ import annotations

import numpy as np


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def cvar(costs: np.ndarray, probs: np.ndarray, alpha: float) -> float:
    """Rockafellar-Uryasev CVaR of a discrete cost distribution.

    ``min_z z + E[(c - z)+] / (1 - alpha)`` is piecewise linear and convex
    in z with its kinks at the cost values, so the minimum sits at one.
    """
    excess = np.maximum(costs[None, :] - costs[:, None], 0.0) @ probs
    return float((costs + excess / (1.0 - alpha)).min())


def procurement_errors(model, sol, rtol: float = 1e-9, feas_tol: float = 1e-6) -> list[str]:
    """Check the solver's raw point (``sol.lp_point``) on the full model,
    read the bracket choices from it, and recompute the brackets' fit,
    prices, scenario costs, mean, CVaR and objective with numpy."""
    from scipy.sparse import csr_array

    inst, lp, x = model.instance, model.lp, sol.lp_point
    T, S, B, F = model.T, model.S, model.B, model.F
    if x is None or x.shape != (lp.n_cols,):
        return ["the solution carries no point in the full model's columns"]
    errs = []
    m = lp.row_matrix
    ax = csr_array((m.data, m.indices, m.indptr), shape=(m.n_rows, m.n_cols)) @ x
    viol = {
        "column bounds": max((lp.col_lower - x).max(), (x - lp.col_upper).max()),
        "row bounds": max((lp.row_lower - ax).max(), (ax - lp.row_upper).max()),
        "integrality": np.abs(x - np.round(x))[lp.is_integer].max(initial=0.0),
    }
    errs += [f"solver point breaks its {k} by {v:.3g}" for k, v in viol.items() if v > feas_tol]
    if not rel_close(float(lp.obj @ x) + lp.obj_offset, sol.objective, feas_tol):
        errs.append("the full model's objective at the solver point differs from sol.objective")

    u_da = np.round(x[model.off_u_da : model.off_u_da + T * B]).reshape(T, B)
    u_bal = np.round(x[model.off_u_bal : model.off_u_bal + S * T * F]).reshape(S, T, F)
    if not (np.all(u_da.sum(axis=1) == 1) and np.all(u_bal.sum(axis=2) == 1)):
        errs.append("the solver point does not choose one bracket per period")
    if not (np.array_equal(sol.u_da, u_da) and np.array_equal(sol.u_bal, u_bal)):
        errs.append("the reported brackets are not the solver point's")
    d_da = x[model.off_d_da : model.off_d_da + T]
    if not np.array_equal(sol.d_da, d_da):
        errs.append("the reported day-ahead volumes are not the solver point's")
    b_sel = u_da.argmax(axis=1)
    f_sel = u_bal.argmax(axis=2)

    slack = 1e-7 * max(1.0, float(np.abs(d_da).max()))
    k_mat = inst.d_fore[None, :] + inst.scenarios.errors
    da = inst.da_curve
    da_demand = inst.exogenous.d_sys_base + d_da
    if np.any(np.abs(da.demand_levels[b_sel] - da_demand) > da.delta / 2 + slack):
        errs.append("day-ahead bracket does not contain the cleared demand")
    bal_demand = inst.exogenous.d_imb_base + k_mat - d_da[None, :]
    bal_levels = np.vstack([c.demand_levels for c in inst.bal_curves])
    rows = np.arange(inst.n_scenarios)[:, None]
    delta_bal = inst.bal_curves[0].delta
    if np.any(np.abs(bal_levels[rows, f_sel] - bal_demand) > delta_bal / 2 + slack):
        errs.append("balancing bracket does not contain the cleared demand")

    price_da = da.prices[b_sel]
    price_bal = np.vstack([c.prices for c in inst.bal_curves])[rows, f_sel]
    d_bal = k_mat - d_da[None, :]
    costs = price_da @ d_da + (price_bal * d_bal).sum(axis=1)
    probs = inst.scenarios.probabilities
    expected = float(probs @ costs)
    risk = cvar(costs, probs, inst.alpha)
    if not np.allclose(sol.price_da, price_da, rtol=rtol, atol=0):
        errs.append("day-ahead prices differ from the chosen brackets")
    if not np.allclose(sol.price_bal, price_bal, rtol=rtol, atol=0):
        errs.append("balancing prices differ from the chosen brackets")
    scale = float(np.abs(costs).max())
    if not np.allclose(sol.scenario_costs, costs, rtol=rtol, atol=rtol * scale):
        errs.append("scenario costs differ from the recomputed ones")
    for name, got, want in (
        ("expected cost", sol.expected_cost, expected),
        ("CVaR", sol.cvar, risk),
        ("objective", sol.objective, expected + inst.beta * risk),
    ):
        if not rel_close(got, want, rtol):
            errs.append(f"{name} {got!r} != recomputed {want!r}")
    return errs


def highs_objective(lp) -> float:
    """Optimum of a ``LinearMip`` by ``scipy.optimize.milp`` (HiGHS)."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    m = lp.row_matrix
    A = csr_array((m.data, m.indices, m.indptr), shape=(m.n_rows, m.n_cols))
    res = milp(
        c=lp.obj,
        constraints=LinearConstraint(A, lp.row_lower, lp.row_upper),
        integrality=lp.is_integer.astype(np.int8),
        bounds=Bounds(lp.col_lower, lp.col_upper),
        options={"mip_rel_gap": 1e-9, "time_limit": 120.0},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove an optimum: {res.message}")
    return float(res.fun + lp.obj_offset)
