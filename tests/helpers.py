"""Shared instance generators, the loop-built references for the
procurement, simplex, branch-and-bound and forecast tests, and the small
conversions only tests use."""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from dpmeter.domain import LoadSeries, day_of_week, settlement_period, week_of_year
from dpmeter.forecast import HIDDEN_WIDTH, LAG_OFFSETS, MlpModel, TrainConfig
from dpmeter.market import PriceCurve, SystemExogenous, bracket_index
from dpmeter.milp import LinearMip, MilpResult, SimplexSolver
from dpmeter.milp._sparse import SparseMatrix
from dpmeter.procurement import INF, MilpModel, ProcurementInstance, _cost_bound
from dpmeter.scenario import ErrorScenarioSet


class MipBuilder:
    """Accumulates columns and sparse rows, then freezes to ``LinearMip``."""

    def __init__(self):
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._obj: list[float] = []
        self._int: list[bool] = []
        self._row_lb: list[float] = []
        self._row_ub: list[float] = []
        self._entries_row: list[int] = []
        self._entries_col: list[int] = []
        self._entries_val: list[float] = []
        self.obj_offset = 0.0

    @property
    def n_cols(self) -> int:
        return len(self._lb)

    @property
    def n_rows(self) -> int:
        return len(self._row_lb)

    def add_col(
        self,
        name: str,
        lower: float,
        upper: float,
        obj: float = 0.0,
        integer: bool = False,
    ) -> int:
        if lower > upper:
            raise ValueError(f"column {name}: lower {lower} > upper {upper}")
        self._lb.append(float(lower))
        self._ub.append(float(upper))
        self._obj.append(float(obj))
        self._int.append(bool(integer))
        return len(self._lb) - 1

    def add_obj(self, col: int, coef: float) -> None:
        self._obj[col] += float(coef)

    def add_row(self, name: str, coeffs: dict[int, float], lower: float, upper: float) -> int:
        if lower > upper:
            raise ValueError(f"row {name}: lower {lower} > upper {upper}")
        idx = len(self._row_lb)
        self._row_lb.append(float(lower))
        self._row_ub.append(float(upper))
        for col, val in coeffs.items():
            if val != 0.0:
                self._entries_row.append(idx)
                self._entries_col.append(col)
                self._entries_val.append(float(val))
        return idx

    def build(self) -> LinearMip:
        matrix = SparseMatrix.from_coo(
            self.n_rows,
            self.n_cols,
            np.asarray(self._entries_row, dtype=np.int64),
            np.asarray(self._entries_col, dtype=np.int64),
            np.asarray(self._entries_val, dtype=float),
        )
        return LinearMip(
            col_lower=np.asarray(self._lb, dtype=float),
            col_upper=np.asarray(self._ub, dtype=float),
            obj=np.asarray(self._obj, dtype=float),
            is_integer=np.asarray(self._int, dtype=bool),
            row_matrix=matrix,
            row_lower=np.asarray(self._row_lb, dtype=float),
            row_upper=np.asarray(self._row_ub, dtype=float),
            obj_offset=self.obj_offset,
        )


def uniform_curve(lo: float, hi: float, n_levels: int, prices) -> PriceCurve:
    """Curve whose coverage hull is exactly [lo, hi]."""
    delta = (hi - lo) / n_levels
    levels = lo + delta / 2.0 + delta * np.arange(n_levels)
    return PriceCurve(levels, np.asarray(prices, dtype=float), delta)


def shifted_prices(curve: PriceCurve, offset: float) -> PriceCurve:
    """``curve`` with every price moved by ``offset``."""
    return PriceCurve(curve.demand_levels, curve.prices + offset, curve.delta)


def scale_to_system(series: LoadSeries, share: float) -> LoadSeries:
    """Scale an LSE-level series up to system level given its load share."""
    if not 0 < share <= 1:
        raise ValueError("share must lie in (0, 1]")
    return LoadSeries(series.meter_id, series.start, series.values / share)


def default_volume_bounds(d_fore: np.ndarray, mult: float = 3.0) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric bounds ``+- mult * max|forecast|`` for every period."""
    d_fore = np.asarray(d_fore, dtype=float)
    width = mult * float(np.abs(d_fore).max())
    return np.full(d_fore.size, -width), np.full(d_fore.size, width)


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


def empty_range_instance() -> ProcurementInstance:
    """T = 2, S = 1: period 1 has ``d_da_lower == d_da_upper == 0``, and the
    day-ahead and balancing grids each miss one end of its reachable demand
    by 8e-10, inside the coverage tolerance.  Clipping to both grids leaves
    its range empty by 1.6e-9."""
    return ProcurementInstance(
        d_fore=np.full(2, 10.0),
        scenarios=ErrorScenarioSet(np.zeros((1, 2)), np.ones(1)),
        da_curve=uniform_curve(40.0, 80.0, 1, [50.0]),
        bal_curves=(uniform_curve(-20.0, 20.0, 1, [80.0]),),
        exogenous=SystemExogenous(
            np.array([50.0, 40.0 - 8e-10]), np.array([[0.0, -30.0 - 8e-10]])
        ),
        beta=0.5,
        alpha=0.9,
        d_da_lower=np.array([-5.0, 0.0]),
        d_da_upper=np.array([15.0, 0.0]),
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


def loop_volume_range(inst: ProcurementInstance) -> tuple[np.ndarray, np.ndarray]:
    """Per-period loop form of ``procurement._volume_range``: the coverage
    checks, then the day-ahead grid clips every period, then each
    scenario's balancing grid in turn, then the empty-range check."""
    tol = 1e-9
    T, S = inst.n_periods, inst.n_scenarios
    k_mat = inst.realized_demand()
    for t in range(T):
        lo = inst.exogenous.d_sys_base[t] + inst.d_da_lower[t]
        hi = inst.exogenous.d_sys_base[t] + inst.d_da_upper[t]
        if lo < inst.da_curve.lo - tol or hi > inst.da_curve.hi + tol:
            raise ValueError(
                f"day-ahead price grid does not cover period {t}: "
                f"reachable demand [{lo:.6g}, {hi:.6g}] vs curve "
                f"[{inst.da_curve.lo:.6g}, {inst.da_curve.hi:.6g}]"
            )
    for s in range(S):
        curve = inst.bal_curves[s]
        for t in range(T):
            lo = inst.exogenous.d_imb_base[s, t] + k_mat[s, t] - inst.d_da_upper[t]
            hi = inst.exogenous.d_imb_base[s, t] + k_mat[s, t] - inst.d_da_lower[t]
            if lo < curve.lo - tol or hi > curve.hi + tol:
                raise ValueError(
                    f"balancing price grid does not cover scenario {s}, period {t}: "
                    f"reachable imbalance [{lo:.6g}, {hi:.6g}] vs curve "
                    f"[{curve.lo:.6g}, {curve.hi:.6g}]"
                )
    da, grid = inst.da_curve, inst.bal_curves[0]
    imb = inst.exogenous.d_imb_base + k_mat
    lo, hi = inst.d_da_lower.copy(), inst.d_da_upper.copy()
    for g in range(1 + S):
        for t in range(T):
            if g == 0:
                base = inst.exogenous.d_sys_base[t]
                lo[t], hi[t] = max(lo[t], da.lo - base), min(hi[t], da.hi - base)
            else:
                lo[t] = max(lo[t], imb[g - 1, t] - grid.hi)
                hi[t] = min(hi[t], imb[g - 1, t] - grid.lo)
    for t in range(T):
        if lo[t] > hi[t] + tol:
            raise ValueError(
                f"price grids leave no volume in period {t}: d_da range "
                f"[{inst.d_da_lower[t]:.6g}, {inst.d_da_upper[t]:.6g}] clips to "
                f"[{lo[t]:.12g}, {hi[t]:.12g}]"
            )
    return np.minimum(lo, hi), hi


def loop_build_milp(inst: ProcurementInstance) -> MilpModel:
    """Per-entry loop form of ``procurement.build_milp``, kept as the
    reference its array form must match bit for bit (names aside)."""
    clipped_lo, clipped_hi = loop_volume_range(inst)
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
        lo=clipped_lo,
        hi=clipped_hi,
        m_cost=m_cost,
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


def loop_cheapest(curve: PriceCurve, prices: np.ndarray, demand: float, volume: float) -> int:
    """The bracket whose cell holds ``demand`` (within 1e-9) at the lowest
    ``price * volume``, the lower one on a tie."""
    best, best_cost = -1, INF
    for f in range(curve.n_levels):
        if abs(curve.demand_levels[f] - demand) <= curve.delta / 2.0 + 1e-9:
            if prices[f] * volume < best_cost:
                best, best_cost = f, prices[f] * volume
    return best


def loop_cells(inst: ProcurementInstance, lo: np.ndarray, hi: np.ndarray) -> list[tuple]:
    """Per-period loop form of ``procurement._cells``: a list of (period,
    lower, upper, day-ahead bracket, [balancing bracket per scenario])."""
    T, S = inst.n_periods, inst.n_scenarios
    da, grid = inst.da_curve, inst.bal_curves[0]
    k_mat = inst.realized_demand()
    imb = inst.exogenous.d_imb_base + k_mat
    da_edges = [lv - da.delta / 2.0 for lv in da.demand_levels] + [da.hi]
    bal_edges = [lv - grid.delta / 2.0 for lv in grid.demand_levels] + [grid.hi]
    cells = []
    for t in range(T):
        base = inst.exogenous.d_sys_base[t]
        cuts = [e - base for e in da_edges] + [imb[s, t] - e for s in range(S) for e in bal_edges]
        cuts = sorted([lo[t], hi[t]] + [c for c in cuts if lo[t] < c < hi[t]])
        points = [cuts[0]]  # each cluster of cuts closer than 1e-9 is one point
        for prev, c in zip(cuts, cuts[1:]):
            if c - prev > 1e-9:
                points.append(c)
        points[-1] = hi[t]
        spans = [(lo[t], hi[t])] if len(points) == 1 else list(zip(points, points[1:]))
        combos = []
        for a, b in spans:
            mid = (a + b) / 2.0
            f = [bracket_index(grid, imb[s, t] - mid) for s in range(S)]
            combos.append((bracket_index(da, base + mid), f))
            cells.append((t, a, b, *combos[-1]))
        for i, q in enumerate(points):
            b_q = loop_cheapest(da, da.prices, base + q, q)
            f_q = [
                loop_cheapest(grid, inst.bal_curves[s].prices, imb[s, t] - q, k_mat[s, t] - q)
                for s in range(S)
            ]

            def alike(combo) -> bool:
                return da.prices[combo[0]] == da.prices[b_q] and all(
                    inst.bal_curves[s].prices[combo[1][s]] == inst.bal_curves[s].prices[f_q[s]]
                    for s in range(S)
                )

            opens = i < len(spans) and alike(combos[i])
            closes = i > 0 and alike(combos[i - 1])
            if not (opens or closes):
                cells.append((t, q, q, b_q, f_q))
    return sorted(cells, key=lambda c: c[:3])


def loop_cell_model(inst: ProcurementInstance) -> LinearMip:
    """Per-entry ``MipBuilder`` form of the cell model ``procurement.solve``
    branches on, kept as the reference its array build must match bit for
    bit (names aside)."""
    T, S = inst.n_periods, inst.n_scenarios
    k_mat = inst.realized_demand()
    probs = inst.scenarios.probabilities
    m_cost = _cost_bound(inst)
    lo, hi = loop_volume_range(inst)
    cells = loop_cells(inst, lo, hi)
    n_cells = [sum(c[0] == t for c in cells) for t in range(T)]

    def costs(cell):
        """Per scenario: the cost per MWh of d_da in the cell and the cost at
        its lower end."""
        t, a, _, bb, f = cell
        p_da = inst.da_curve.prices[bb]
        p_bal = [inst.bal_curves[s].prices[f[s]] for s in range(S)]
        slope = [p_da - p_bal[s] for s in range(S)]
        at_lower = [p_da * a + p_bal[s] * (k_mat[s, t] - a) for s in range(S)]
        return slope, at_lower, p_bal

    b = MipBuilder()
    d_cols = [b.add_col(f"d_da[{t}]", lo[t], hi[t]) for t in range(T)]
    zeta = b.add_col("zeta", -m_cost, m_cost, obj=inst.beta)
    eta = [
        b.add_col(f"eta[{s}]", 0.0, 2.0 * m_cost, obj=inst.beta * probs[s] / (1.0 - inst.alpha))
        for s in range(S)
    ]
    multi = [c for c in cells if n_cells[c[0]] > 1]
    z = [b.add_col(f"z[{i}]", 0.0, 1.0, integer=True) for i in range(len(multi))]
    y = [b.add_col(f"y[{i}]", 0.0, c[2] - c[1]) for i, c in enumerate(multi)]

    cvar = [{zeta: -1.0, eta[s]: -1.0} for s in range(S)]
    cvar_const = np.zeros(S)
    for cell in cells:
        slope, at_lower, p_bal = costs(cell)
        t = cell[0]
        if n_cells[t] == 1:
            b.add_obj(d_cols[t], sum(probs[s] * slope[s] for s in range(S)))
            for s in range(S):
                cvar[s][d_cols[t]] = slope[s]
                cvar_const[s] -= p_bal[s] * k_mat[s, t]
        else:
            i = multi.index(cell)
            b.add_obj(z[i], sum(probs[s] * at_lower[s] for s in range(S)))
            b.add_obj(y[i], sum(probs[s] * slope[s] for s in range(S)))
            for s in range(S):
                cvar[s][z[i]] = at_lower[s]
                cvar[s][y[i]] = slope[s]
    for s in range(S):
        b.add_row(f"cvar[{s}]", cvar[s], -INF, cvar_const[s])
    b.obj_offset = -sum(probs[s] * cvar_const[s] for s in range(S))
    periods = sorted({c[0] for c in multi})
    for t in periods:
        b.add_row(f"one[{t}]", {z[i]: 1.0 for i, c in enumerate(multi) if c[0] == t}, 1.0, 1.0)
    for t in periods:
        tie = {d_cols[t]: 1.0}
        for i, c in enumerate(multi):
            if c[0] == t:
                tie[z[i]] = -c[1]
                tie[y[i]] = -1.0
        b.add_row(f"tie[{t}]", tie, 0.0, 0.0)
    for i, c in enumerate(multi):
        b.add_row(f"cap[{i}]", {y[i]: 1.0, z[i]: -(c[2] - c[1])}, -INF, 0.0)
    return b.build()


def loop_dense(A: SparseMatrix) -> np.ndarray:
    """``A`` as a dense matrix, built row by row from its CSR arrays
    (``indptr``, ``indices``, ``data``) rather than by ``toarray``."""
    out = np.zeros((A.n_rows, A.n_cols))
    for i in range(A.n_rows):
        lo, hi = A.indptr[i], A.indptr[i + 1]
        out[i, A.indices[lo:hi]] = A.data[lo:hi]
    return out


def loop_basis_matrix(solver) -> np.ndarray:
    """Column-by-column form of ``SimplexSolver._basis_matrix``."""
    A = loop_dense(solver.A)
    B = np.zeros((solver.m, solver.m))
    for k, j in enumerate(solver.basis):
        j = int(j)
        if j < solver.n:
            B[:, k] = A[:, j]
        else:
            B[j - solver.n, k] = -1.0
    return B


@dataclass
class _Pending:
    fixes: list[tuple[int, float, float]]
    basis: np.ndarray
    vstat: np.ndarray
    parent_bound: float


def fixes_solve_milp(lp: LinearMip, *, gap_tol=1e-6, max_nodes=500_000, basis=None):
    """``branch_bound.solve_milp`` with each node kept as a list of
    ``(col, lo, hi)`` fixes that a pop replays over the original bounds, a
    solve before the loop and binaries fixed at 0 or 1.  General integers
    branch from the original bounds, so this form is a reference for
    binary models only."""
    int_tol = 1e-7
    int_cols = lp.integer_columns()
    solver = SimplexSolver(lp, basis)
    orig_lb = lp.col_lower.copy()
    orig_ub = lp.col_upper.copy()

    best_obj = INF
    best_x = None
    worst_pruned = INF
    n_nodes = 0

    def note_pruned(bound):
        nonlocal worst_pruned
        worst_pruned = min(worst_pruned, bound)

    def reset_bounds(fixes):
        for c in int_cols:
            solver.set_col_bounds(int(c), orig_lb[c], orig_ub[c])
        for c, lo, hi in fixes:
            solver.set_col_bounds(c, lo, hi)

    stack = []
    fixes = []
    telemetry = [0, 0]  # phase-1 iterations, Bland switches

    def note_solve(res):
        telemetry[0] += res.phase1_iterations
        telemetry[1] += res.bland
        return res

    res = note_solve(solver.solve())
    n_nodes = 1
    lp_iterations = root_iterations = res.iterations
    if res.status == "infeasible":
        return MilpResult(
            "infeasible", INF, None, INF, n_nodes, lp_iterations, solver.refactorizations,
            res.infeasible_row, *telemetry, root_iterations,
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
                res = note_solve(solver.solve())
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
            res = note_solve(solver.solve())
            n_nodes += 1
            lp_iterations += res.iterations
            if res.status == "unbounded":
                raise ValueError("sibling relaxation unbounded")
            if res.status == "infeasible":
                res = None
        if res is None and not stack:
            break

    counts = (n_nodes, lp_iterations, solver.refactorizations, -1, *telemetry, root_iterations)
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
