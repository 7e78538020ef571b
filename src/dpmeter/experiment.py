"""End-to-end experiment orchestration.

One cell = (scheme, epsilon, gamma, heterogeneity fraction, seed).  Each
cell forecasts the selected consumer group under its scheme, scales the
volumes to system level, samples forecast-error scenarios, prices them
through the procurement program, and appends one result row.  The market
(price curves, exogenous demand and imbalance) is built once per
experiment so schemes compete under identical conditions.

Cells are isolated: a failing cell is logged and skipped, other cells run,
and the caller decides the exit code from the failure list.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .domain import (
    HHS_DDP,
    PERIODS_PER_DAY,
    DlcProfile,
    LoadSeries,
    MeterPanel,
    SettlementScheme,
    aggregate_panel,
    compute_dlc,
    read_meter_csv,
)
from .forecast import BACKTEST_DAYS, ForecastResult, TrainConfig, forecast_scheme
from .market import PriceCurve, SystemExogenous, build_curve, read_ladder_csv
from .metrics import wape
from .privacy import PrivacyParams
from .procurement import ProcurementInstance, Solution, build_milp, solve
from .scenario import generate_scenarios
from .synth import SynthConfig, generate_panel, kmeans_groups, sample_group

KWH_PER_MWH = 1e-3  # module-boundary conversion factor

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MarketConfig:
    """Synthetic market shape; every constant is configurable."""

    sample_share: float = 0.001  # panel's share of the population it represents
    market_share: float = 0.25  # LSE volume as a fraction of system demand
    n_levels_da: int = 6
    n_levels_bal: int = 5
    da_price_lo: float = 35.0
    da_price_hi: float = 95.0
    bal_premium: float = 55.0  # balancing price swing around zero imbalance
    bal_spread: float = 10.0  # per-scenario balancing price shift (std dev)
    imb_sigma_rel: float = 0.015  # system imbalance vs mean system demand
    bound_mult: float = 0.5  # day-ahead slack around the reference profile
    pad_mult: float = 1.5  # day-ahead grid coverage margin vs max |reference|
    bal_pad_mult: float = 8.0  # balancing grid margin; must absorb error tails
    # historical bid stacks override the synthetic curves when given; the
    # balancing ladder's cumulative grid is shifted by its origin so it can
    # span negative (surplus) territory
    da_ladder_csv: str | None = None
    bal_ladder_csv: str | None = None
    ladder_delta: float | None = None
    bal_ladder_origin: float = 0.0

    def __post_init__(self):
        if not 0 < self.sample_share <= 1 or not 0 < self.market_share < 1:
            raise ValueError("shares must lie in (0, 1)")
        if self.n_levels_da < 1 or self.n_levels_bal < 1:
            raise ValueError("price grids need at least one level")
        if self.bound_mult <= 0:
            raise ValueError("bound multiplier must be positive")
        if (self.da_ladder_csv or self.bal_ladder_csv) and self.ladder_delta is None:
            raise ValueError("ladder paths require ladder_delta")


@dataclass(frozen=True)
class ExperimentConfig:
    synth: SynthConfig = field(default_factory=SynthConfig)
    input_csv: str | None = None  # overrides synth when given
    schemes: tuple[str, ...] = ("nhhs", "hhs-dlcsys", "hhs-ehh", "hhs-ddp")
    epsilon_grid: tuple[float, ...] = (0.25,)
    gamma_grid: tuple[float, ...] = (0.75,)
    hetero_p: tuple[float, ...] = ()
    n_scenarios: int = 20
    beta: float = 0.5
    alpha: float = 0.95
    market: MarketConfig = field(default_factory=MarketConfig)
    train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=80))
    seeds: tuple[int, ...] = (0,)
    group_kind: str = "kmeans"  # "whole" | "kmeans" | "share"
    group_k: int = 4
    group_index: int = 3  # kmeans groups are KLD-sorted; 3 = highest of 4
    group_share: float = 0.25
    group_seed: int = 0
    solver_tol: float = 1e-6

    def __post_init__(self):
        if not self.schemes:
            raise ValueError("scheme list is empty")
        for s in self.schemes:
            if s not in ("nhhs", "hhs-dlcsys", "hhs-ehh", "hhs-ddp"):
                raise ValueError(f"unknown scheme {s!r}")
        if "hhs-ddp" in self.schemes and (not self.epsilon_grid or not self.gamma_grid):
            raise ValueError("hhs-ddp requires epsilon and gamma grids")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.n_scenarios < 1:
            raise ValueError("need at least one scenario")


@dataclass(frozen=True)
class SchemeResult:
    """One row of the experiment table."""

    scheme: str
    group: str
    epsilon: float | None
    gamma: float | None
    p: float | None
    seed: int
    kld: float
    wape: float
    expected_cost: float
    cvar: float
    objective: float
    omega_exp: float | None = None  # probability-weighted reference cost

    def __post_init__(self):
        for name in ("kld", "wape", "expected_cost", "cvar", "objective"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def sort_key(self):
        return (
            self.scheme,
            -1.0 if self.epsilon is None else self.epsilon,
            -1.0 if self.gamma is None else self.gamma,
            -1.0 if self.p is None else self.p,
            self.seed,
        )


# --------------------------------------------------------------------------
# Market construction
# --------------------------------------------------------------------------


def _increasing_prices(n: int, lo: float, hi: float) -> np.ndarray:
    if n == 1:
        return np.array([(lo + hi) / 2.0])
    frac = np.linspace(0.0, 1.0, n)
    return lo + (hi - lo) * frac**1.3


def make_market(
    reference_mwh: np.ndarray,
    n_scenarios: int,
    mcfg: MarketConfig,
    seed: int,
) -> tuple[PriceCurve, tuple[PriceCurve, ...], SystemExogenous, np.ndarray, np.ndarray]:
    """Curves, exogenous demand, and volume bounds around a reference day.

    ``reference_mwh`` is a scheme-independent system-scale day profile (the
    panel's trailing average) so that every scheme trades in an identical
    market.  Returns (da_curve, bal_curves, exogenous, lower, upper).
    """
    ref = np.asarray(reference_mwh, dtype=float)
    scale = float(np.abs(ref).max())
    if scale <= 0:
        raise ValueError("reference day has no load")
    # day-ahead positions live around the expected load, not around zero
    width = mcfg.bound_mult * scale
    lo = ref - width
    hi = ref + width
    rng = np.random.default_rng(seed)

    d_sys = ref * (1.0 / mcfg.market_share - 1.0)
    pad = mcfg.pad_mult * scale
    if mcfg.da_ladder_csv is not None:
        da_curve = build_curve(read_ladder_csv(mcfg.da_ladder_csv), mcfg.ladder_delta)
    else:
        hull_lo = float((d_sys + lo).min()) - pad
        hull_hi = float((d_sys + hi).max()) + pad
        delta = (hull_hi - hull_lo) / mcfg.n_levels_da
        levels = hull_lo + delta / 2.0 + delta * np.arange(mcfg.n_levels_da)
        da_curve = PriceCurve(
            levels,
            _increasing_prices(mcfg.n_levels_da, mcfg.da_price_lo, mcfg.da_price_hi),
            delta,
        )

    imb_sigma = mcfg.imb_sigma_rel * float(d_sys.mean())
    d_imb = rng.normal(0.0, imb_sigma, (n_scenarios, ref.size))
    if mcfg.bal_ladder_csv is not None:
        raw = build_curve(read_ladder_csv(mcfg.bal_ladder_csv), mcfg.ladder_delta)
        base = PriceCurve(
            raw.demand_levels + mcfg.bal_ladder_origin, raw.prices, raw.delta
        )
        levels_b, base_prices, delta_b = base.demand_levels, base.prices, base.delta
    else:
        bal_pad = mcfg.bal_pad_mult * scale
        bal_hull = (
            float(d_imb.min()) - width - bal_pad,
            float(d_imb.max()) + width + bal_pad,
        )
        delta_b = (bal_hull[1] - bal_hull[0]) / mcfg.n_levels_bal
        levels_b = bal_hull[0] + delta_b / 2.0 + delta_b * np.arange(mcfg.n_levels_bal)
        mid_price = 0.5 * (mcfg.da_price_lo + mcfg.da_price_hi)
        # scarcity pricing: buying in a shortage gets superlinearly expensive
        # and dumping a surplus recovers superlinearly less, so forecast
        # error is penalized however far into the tails it lands
        base_prices = mid_price + mcfg.bal_premium * np.sinh(
            levels_b / (2.5 * scale)
        ) / np.sinh(1.0)
    shifts = rng.normal(0.0, mcfg.bal_spread, n_scenarios)
    bal_curves = tuple(
        PriceCurve(levels_b, base_prices + shifts[s], delta_b) for s in range(n_scenarios)
    )
    return da_curve, bal_curves, SystemExogenous(d_sys, d_imb), lo, hi


def _reference_day(panel: MeterPanel, sample_share: float) -> np.ndarray:
    """Trailing-week average day of the aggregate, at system scale (MWh)."""
    agg = aggregate_panel(panel)
    tail = agg.values[-7 * PERIODS_PER_DAY :]
    day = tail.reshape(7, PERIODS_PER_DAY).mean(axis=0)
    return day * KWH_PER_MWH / sample_share


def forecast_to_instance(
    forecast_kwh: LoadSeries,
    wape_value: float,
    market: tuple,
    cfg: ExperimentConfig,
    scen_seed: int,
) -> ProcurementInstance:
    """Scale a kWh forecast to system MWh and wrap it with the market."""
    da_curve, bal_curves, exogenous, lo, hi = market
    fore_mwh = forecast_kwh.values * KWH_PER_MWH / cfg.market.sample_share
    scenarios = generate_scenarios(fore_mwh, wape_value, cfg.n_scenarios, scen_seed)
    return ProcurementInstance(
        d_fore=fore_mwh,
        scenarios=scenarios,
        da_curve=da_curve,
        bal_curves=bal_curves,
        exogenous=exogenous,
        beta=cfg.beta,
        alpha=cfg.alpha,
        d_da_lower=lo,
        d_da_upper=hi,
    )


# --------------------------------------------------------------------------
# Experiment driver
# --------------------------------------------------------------------------


def load_panel(cfg: ExperimentConfig) -> MeterPanel:
    if cfg.input_csv is not None:
        return read_meter_csv(cfg.input_csv)
    return generate_panel(cfg.synth)


def select_group(cfg: ExperimentConfig, panel: MeterPanel):
    """(group panel, group label, group KLD vs the whole panel)."""
    if cfg.group_kind == "whole":
        return panel, "whole", 0.0
    if cfg.group_kind == "kmeans":
        groups = kmeans_groups(panel, cfg.group_k, cfg.group_seed)
        g = groups[cfg.group_index]
        return g.panel(panel), g.label, g.kld_vs_system.value
    if cfg.group_kind == "share":
        g = sample_group(panel, cfg.group_share, cfg.group_seed)
        return g.panel(panel), g.label, g.kld_vs_system.value
    raise ValueError(f"unknown group kind {cfg.group_kind!r}")


def _scheme_of(name: str, epsilon: float | None, gamma: float | None) -> SettlementScheme:
    if name == "hhs-ddp":
        return SettlementScheme.hhs_ddp(PrivacyParams(epsilon, gamma))
    return SettlementScheme(name)


def _cell_seeds(seed: int) -> tuple[int, int]:
    """(forecast pipeline seed, scenario seed) for one cell."""
    children = np.random.SeedSequence(seed).spawn(2)
    return seed, int(np.random.default_rng(children[1]).integers(2**31 - 1))


def run_cell(
    scheme: SettlementScheme,
    group_panel: MeterPanel,
    dlc_sys: DlcProfile,
    market: tuple,
    cfg: ExperimentConfig,
    seed: int,
) -> tuple[ForecastResult, Solution]:
    fc_seed, scen_seed = _cell_seeds(seed)
    fc = forecast_scheme(scheme, group_panel, dlc_sys, cfg.train, fc_seed)
    inst = forecast_to_instance(fc.forecast, fc.wape_backtest.value, market, cfg, scen_seed)
    sol = solve(build_milp(inst), tol=cfg.solver_tol)
    if sol.status != "optimal":
        raise RuntimeError(f"procurement {sol.status}: {sol.infeasible_row}")
    return fc, sol


def run_experiment(cfg: ExperimentConfig) -> tuple[list[SchemeResult], list[str]]:
    """All (scheme, epsilon, gamma, seed) cells; failures abort only their cell."""
    panel = load_panel(cfg)
    dlc_sys = compute_dlc(panel)
    group_panel, group_label, group_kld = select_group(cfg, panel)
    reference = _reference_day(group_panel, cfg.market.sample_share)
    market = make_market(reference, cfg.n_scenarios, cfg.market, cfg.group_seed)

    cells: list[tuple[str, float | None, float | None, int]] = []
    for name in cfg.schemes:
        if name == "hhs-ddp":
            for eps in cfg.epsilon_grid:
                for gam in cfg.gamma_grid:
                    cells.extend((name, eps, gam, s) for s in cfg.seeds)
        else:
            cells.extend((name, None, None, s) for s in cfg.seeds)

    results: list[SchemeResult] = []
    failures: list[str] = []
    for name, eps, gam, seed in cells:
        label = f"{name}(eps={eps},gamma={gam},seed={seed})"
        try:
            scheme = _scheme_of(name, eps, gam)
            fc, sol = run_cell(scheme, group_panel, dlc_sys, market, cfg, seed)
            results.append(
                SchemeResult(
                    scheme=name,
                    group=group_label,
                    epsilon=eps,
                    gamma=gam,
                    p=None,
                    seed=seed,
                    kld=group_kld,
                    wape=fc.wape_backtest.value,
                    expected_cost=sol.expected_cost,
                    cvar=sol.cvar,
                    objective=sol.objective,
                )
            )
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            failures.append(f"{label}: {exc}")
            _log.warning("cell failed: %s: %s", label, exc)
    results.sort(key=SchemeResult.sort_key)
    if cfg.hetero_p:
        params = PrivacyParams(cfg.epsilon_grid[0], cfg.gamma_grid[0])
        hetero, hfail = heterogeneity_sweep(cfg, cfg.hetero_p, params)
        results.extend(hetero)
        failures.extend(hfail)
    return results, failures


def _hetero_forecast(
    group_panel: MeterPanel,
    dlc_sys: DlcProfile,
    params: PrivacyParams,
    p: float,
    cfg: ExperimentConfig,
    seed: int,
) -> tuple[LoadSeries, float, LoadSeries]:
    """Sum of raw and privatized sub-aggregate forecasts; backtest WAPE.

    At p = 0 or p = 1 the split is skipped entirely, so those endpoints
    reproduce the plain pipelines bit for bit under a shared seed.
    """
    fc_seed, _ = _cell_seeds(seed)
    n = group_panel.n_meters
    n_priv = int(round(p * n))
    if n_priv == 0:
        fc = forecast_scheme(
            SettlementScheme.hhs_ehh(), group_panel, dlc_sys, cfg.train, fc_seed
        )
        return fc.forecast, fc.wape_backtest.value, fc.backtest
    if n_priv == n:
        fc = forecast_scheme(
            SettlementScheme.hhs_ddp(params), group_panel, dlc_sys, cfg.train, fc_seed
        )
        return fc.forecast, fc.wape_backtest.value, fc.backtest
    split_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[2])
    priv_idx = np.sort(split_rng.choice(n, size=n_priv, replace=False))
    priv_ids = [group_panel.meters[i].meter_id for i in priv_idx]
    rest_ids = [m.meter_id for i, m in enumerate(group_panel.meters) if i not in set(priv_idx)]
    fc_priv = forecast_scheme(
        SettlementScheme.hhs_ddp(params),
        group_panel.subset(priv_ids),
        dlc_sys,
        cfg.train,
        fc_seed,
    )
    fc_rest = forecast_scheme(
        SettlementScheme.hhs_ehh(), group_panel.subset(rest_ids), dlc_sys, cfg.train, fc_seed
    )
    combined = LoadSeries(
        "hetero-forecast",
        fc_priv.forecast.start,
        fc_priv.forecast.values + fc_rest.forecast.values,
    )
    backtest = LoadSeries(
        "hetero-backtest",
        fc_priv.backtest.start,
        fc_priv.backtest.values + fc_rest.backtest.values,
    )
    truth = aggregate_panel(group_panel)
    holdout = truth.values[-BACKTEST_DAYS * PERIODS_PER_DAY :]
    return combined, wape(holdout, backtest.values).value, backtest


def heterogeneity_sweep(
    cfg: ExperimentConfig,
    p_values,
    params: PrivacyParams,
) -> tuple[list[SchemeResult], list[str]]:
    """Cost of serving a group where only a fraction p demands privacy.

    Also reports the probability-weighted reference cost
    ``p * cost(all private) + (1 - p) * cost(none private)`` per seed.
    """
    panel = load_panel(cfg)
    dlc_sys = compute_dlc(panel)
    group_panel, group_label, group_kld = select_group(cfg, panel)
    reference = _reference_day(group_panel, cfg.market.sample_share)
    market = make_market(reference, cfg.n_scenarios, cfg.market, cfg.group_seed)

    results: list[SchemeResult] = []
    failures: list[str] = []
    endpoints: dict[tuple[int, float], float] = {}

    def solve_for(p: float, seed: int):
        forecast, wape_value, _ = _hetero_forecast(
            group_panel, dlc_sys, params, p, cfg, seed
        )
        _, scen_seed = _cell_seeds(seed)
        inst = forecast_to_instance(forecast, wape_value, market, cfg, scen_seed)
        sol = solve(build_milp(inst), tol=cfg.solver_tol)
        if sol.status != "optimal":
            raise RuntimeError(f"procurement {sol.status}: {sol.infeasible_row}")
        return wape_value, sol

    for seed in cfg.seeds:
        for p in (0.0, 1.0):
            try:
                _, sol = solve_for(p, seed)
                endpoints[(seed, p)] = sol.expected_cost
            except Exception as exc:  # noqa: BLE001
                failures.append(f"hetero endpoint p={p} seed={seed}: {exc}")
                _log.warning("cell failed: hetero p=%s seed=%s: %s", p, seed, exc)

    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValueError("heterogeneity fractions must lie in [0, 1]")
        for seed in cfg.seeds:
            if (seed, 0.0) not in endpoints or (seed, 1.0) not in endpoints:
                continue
            try:
                wape_value, sol = solve_for(float(p), seed)
                omega_exp = (
                    p * endpoints[(seed, 1.0)] + (1.0 - p) * endpoints[(seed, 0.0)]
                )
                results.append(
                    SchemeResult(
                        scheme="hetero",
                        group=group_label,
                        epsilon=params.epsilon,
                        gamma=params.gamma,
                        p=float(p),
                        seed=seed,
                        kld=group_kld,
                        wape=wape_value,
                        expected_cost=sol.expected_cost,
                        cvar=sol.cvar,
                        objective=sol.objective,
                        omega_exp=omega_exp,
                    )
                )
            except Exception as exc:  # noqa: BLE001
                failures.append(f"hetero p={p} seed={seed}: {exc}")
                _log.warning("cell failed: hetero p=%s seed=%s: %s", p, seed, exc)
    results.sort(key=SchemeResult.sort_key)
    return results, failures


# --------------------------------------------------------------------------
# Config and report serialization
# --------------------------------------------------------------------------


def config_to_json(cfg: ExperimentConfig) -> str:
    doc = dataclasses.asdict(cfg)
    return json.dumps(doc, indent=1, sort_keys=True)


def config_from_json(text: str) -> ExperimentConfig:
    doc = json.loads(text)
    kwargs = dict(doc)
    if "synth" in kwargs and kwargs["synth"] is not None:
        kwargs["synth"] = SynthConfig(**kwargs["synth"])
    if "market" in kwargs and kwargs["market"] is not None:
        kwargs["market"] = MarketConfig(**kwargs["market"])
    if "train" in kwargs and kwargs["train"] is not None:
        kwargs["train"] = TrainConfig(**kwargs["train"])
    for key in ("schemes", "epsilon_grid", "gamma_grid", "hetero_p", "seeds"):
        if key in kwargs and kwargs[key] is not None:
            kwargs[key] = tuple(kwargs[key])
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_json(fh.read())


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


RESULT_COLUMNS = [
    "scheme",
    "group",
    "epsilon",
    "gamma",
    "p",
    "seed",
    "kld",
    "wape",
    "expected_cost",
    "cvar",
    "objective",
    "omega_exp",
]


def write_results_csv(results: list[SchemeResult], path) -> None:
    rows = [[getattr(r, c) for c in RESULT_COLUMNS] for r in results]
    _write_csv(path, RESULT_COLUMNS, rows)


def read_results_csv(path) -> list[SchemeResult]:
    import csv as _csv

    out = []
    with open(path, newline="") as fh:
        for row in _csv.DictReader(fh):
            out.append(
                SchemeResult(
                    scheme=row["scheme"],
                    group=row["group"],
                    epsilon=float(row["epsilon"]) if row["epsilon"] else None,
                    gamma=float(row["gamma"]) if row["gamma"] else None,
                    p=float(row["p"]) if row["p"] else None,
                    seed=int(row["seed"]),
                    kld=float(row["kld"]),
                    wape=float(row["wape"]),
                    expected_cost=float(row["expected_cost"]),
                    cvar=float(row["cvar"]),
                    objective=float(row["objective"]),
                    omega_exp=float(row["omega_exp"]) if row["omega_exp"] else None,
                )
            )
    return out


def report(results: list[SchemeResult], out_dir, cfg: ExperimentConfig) -> list[str]:
    """Write the plot-ready tables; returns the file names written."""
    from pathlib import Path

    if not results:
        raise ValueError("result table is empty; nothing to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = sorted(results, key=SchemeResult.sort_key)
    written = []

    write_results_csv(rows, out / "results.csv")
    written.append("results.csv")

    main = [r for r in rows if r.scheme != "hetero"]
    _write_csv(
        out / "kld_wape.csv",
        ["kld", "scheme", "epsilon", "gamma", "seed", "wape"],
        [[r.kld, r.scheme, r.epsilon, r.gamma, r.seed, r.wape] for r in main],
    )
    written.append("kld_wape.csv")

    _write_csv(
        out / "scheme_wape.csv",
        ["group", "scheme", "epsilon", "gamma", "seed", "wape"],
        [[r.group, r.scheme, r.epsilon, r.gamma, r.seed, r.wape] for r in main],
    )
    written.append("scheme_wape.csv")

    _write_csv(
        out / "costs.csv",
        ["scheme", "epsilon", "gamma", "seed", "wape", "expected_cost", "cvar", "objective"],
        [
            [r.scheme, r.epsilon, r.gamma, r.seed, r.wape, r.expected_cost, r.cvar, r.objective]
            for r in main
        ],
    )
    written.append("costs.csv")

    hetero = [r for r in rows if r.scheme == "hetero"]
    _write_csv(
        out / "hetero.csv",
        ["p", "epsilon", "gamma", "seed", "wape", "expected_cost", "cvar", "omega_exp"],
        [
            [r.p, r.epsilon, r.gamma, r.seed, r.wape, r.expected_cost, r.cvar, r.omega_exp]
            for r in hetero
        ],
    )
    written.append("hetero.csv")

    elasticity = wape_cost_elasticity(main)
    config_json = config_to_json(cfg)
    meta = {
        "tool_version": __version__,
        "config_sha256": hashlib.sha256(config_json.encode()).hexdigest(),
        "seeds": list(cfg.seeds),
        "kld_log_base": "e",
        "wape_cost_elasticity": elasticity,
        "n_rows": len(rows),
    }
    with open(out / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    written.append("metadata.json")
    return written


def wape_cost_elasticity(results: list[SchemeResult]) -> float | None:
    """Measured % cost change per 1% WAPE change across scheme cells.

    Reported without asserting a sign; computed as the slope of relative
    cost on relative WAPE around the per-seed best scheme.
    """
    by_seed: dict[int, list[SchemeResult]] = {}
    for r in results:
        by_seed.setdefault(r.seed, []).append(r)
    xs, ys = [], []
    for rows in by_seed.values():
        if len(rows) < 2:
            continue
        base = min(rows, key=lambda r: r.wape)
        if base.wape <= 0 or base.expected_cost == 0:
            continue
        for r in rows:
            if r is base:
                continue
            dw = (r.wape - base.wape) / base.wape * 100.0
            dc = (r.expected_cost - base.expected_cost) / abs(base.expected_cost) * 100.0
            if abs(dw) > 1e-9:
                xs.append(dw)
                ys.append(dc)
    if not xs:
        return None
    xs_arr, ys_arr = np.asarray(xs), np.asarray(ys)
    return float((xs_arr @ ys_arr) / (xs_arr @ xs_arr))
