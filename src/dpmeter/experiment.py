"""End-to-end experiment orchestration.

One cell = (scheme, epsilon, gamma, seed).  Each cell forecasts the
selected consumer group under its scheme, scales the volumes to system
level, samples forecast-error scenarios, prices them through the
procurement program, and appends one result row.  The market (price
curves, exogenous demand and imbalance) is built once per experiment, so
schemes compete under identical conditions.  The system profile and the
group come from a small process-wide memo keyed by the panel's source and
the grouping (``_built_group``), so a sweep of experiments over one panel
and group (other seeds, risk settings or privacy grids) synthesizes the
panel and clusters it once.  The memo holds only immutable group-level
values: the group's meters, not the whole panel's.

Work is keyed by forecast, not by row.  Each seed runs one forecast phase:
every forecast its scheme rows and heterogeneity rows need is trained in
one stack (``forecast.forecast_schemes``), and each distinct forecast is
then solved once into the experiment's outcome table, keyed by seed and
``ForecastKey``.  Every row reads that table: nhhs shares the hhs-dlcsys
forecast, which takes the same daily pipeline, and the heterogeneity
sweep's p = 0 and p = 1 endpoints are the hhs-ehh and hhs-ddp forecasts.
Rows and failures come out in the scheme grid's order, then the sweep's.

Cells are isolated: a failing cell is logged and skipped, other cells run,
and the caller decides the exit code from the failure list.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .domain import (
    PERIODS_PER_DAY,
    _SCHEME_KINDS,
    DlcProfile,
    LoadSeries,
    MeterPanel,
    SettlementScheme,
    _check_fields,
    aggregate_panel,
    compute_dlc,
    read_csv,
    read_meter_csv,
    write_csv,
)
from .forecast import (
    ForecastResult,
    TrainConfig,
    backtest_wape,
    cell_streams,
    forecast_request,
    forecast_schemes,
)
from .market import PriceCurve, SystemExogenous, build_curve, read_ladder_csv
from .privacy import PrivacyParams
from .procurement import ProcurementInstance, build_milp, solve
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
        _check_fields(
            self,
            integers=("n_levels_da", "n_levels_bal"),
            reals=(
                "sample_share", "market_share", "da_price_lo", "da_price_hi", "bal_premium",
                "bal_spread", "imb_sigma_rel", "bound_mult", "pad_mult", "bal_pad_mult",
                "bal_ladder_origin", *(() if self.ladder_delta is None else ("ladder_delta",)),
            ),
        )
        if not 0 < self.sample_share <= 1 or not 0 < self.market_share < 1:
            raise ValueError("shares must lie in (0, 1)")
        if self.n_levels_da < 1 or self.n_levels_bal < 1:
            raise ValueError("price grids need at least one level")
        if self.bound_mult <= 0:
            raise ValueError("bound multiplier must be positive")
        if (self.da_ladder_csv or self.bal_ladder_csv) and self.ladder_delta is None:
            raise ValueError("ladder paths require ladder_delta")
        if self.ladder_delta is not None and not self.ladder_delta > 0:
            raise ValueError("ladder_delta must be finite and > 0")


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
            if s not in _SCHEME_KINDS:
                raise ValueError(f"unknown scheme {s!r}")
        if "hhs-ddp" in self.schemes or self.hetero_p:
            if not self.epsilon_grid or not self.gamma_grid:
                raise ValueError("hhs-ddp and hetero_p require epsilon and gamma grids")
            for eps in self.epsilon_grid:
                for gam in self.gamma_grid:
                    PrivacyParams(eps, gam)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 <= self.beta < np.inf:
            raise ValueError("beta must be finite and >= 0")
        if not 0.0 <= self.solver_tol < np.inf:
            raise ValueError("solver_tol must be finite and >= 0")
        if not all(0.0 <= p <= 1.0 for p in self.hetero_p):
            raise ValueError("heterogeneity fractions must lie in [0, 1]")
        _check_fields(
            self,
            integers=("n_scenarios", "group_k", "group_index", "group_seed", "seeds"),
            reals=(
                "epsilon_grid", "gamma_grid", "hetero_p", "beta", "alpha", "group_share",
                "solver_tol",
            ),
        )
        if not self.seeds:
            raise ValueError("need at least one seed")
        if min(self.seeds) < 0 or self.group_seed < 0:
            raise ValueError("seeds and group_seed must be >= 0")
        if self.n_scenarios < 1:
            raise ValueError("need at least one scenario")
        if self.group_kind not in ("whole", "kmeans", "share"):
            raise ValueError(f"unknown group kind {self.group_kind!r}")
        if self.group_kind == "kmeans" and not 0 <= self.group_index < self.group_k:
            raise ValueError("kmeans group_index must lie in [0, group_k)")
        if self.group_kind == "share" and not 0.0 < self.group_share <= 1.0:
            raise ValueError("share group_share must lie in (0, 1]")


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
    g = sample_group(panel, cfg.group_share, cfg.group_seed)
    return g.panel(panel), g.label, g.kld_vs_system.value


@dataclass(frozen=True)
class _GroupSource:
    """The memo key of ``_built_group``: the panel's source (the synthetic
    panel's config, or the meter file's real path, modification time and
    size, so an edited file is read again; a rewrite of the same size
    within one tick of the file system's clock is not seen) and the
    grouping.  ``cfg`` builds the values on a miss; it is not part of the
    key."""

    panel: SynthConfig | tuple[str, int, int]
    grouping: tuple[str, int, int, float, int]
    cfg: ExperimentConfig = field(compare=False, repr=False)


def _group_source(cfg: ExperimentConfig) -> _GroupSource:
    if cfg.input_csv is None:
        panel = cfg.synth
    else:
        st = os.stat(cfg.input_csv)
        panel = (os.path.realpath(cfg.input_csv), st.st_mtime_ns, st.st_size)
    grouping = (cfg.group_kind, cfg.group_k, cfg.group_index, cfg.group_share, cfg.group_seed)
    return _GroupSource(panel, grouping, cfg)


@functools.lru_cache(maxsize=4)
def _built_group(source: _GroupSource) -> tuple[DlcProfile, MeterPanel, str, float]:
    """(system DLC, group panel, group label, group KLD) for one panel
    source and grouping, built by ``load_panel``, ``compute_dlc`` and
    ``select_group`` on the first call and returned as is after that.
    Every value is immutable, only the group's meters are held, not the
    whole panel's, and a failed build is not kept."""
    panel = load_panel(source.cfg)
    return (compute_dlc(panel), *select_group(source.cfg, panel))


def _scheme_of(name: str, epsilon: float | None, gamma: float | None) -> SettlementScheme:
    if name == "hhs-ddp":
        return SettlementScheme.hhs_ddp(PrivacyParams(epsilon, gamma))
    return SettlementScheme(name)


def _cell_seeds(seed: int) -> tuple[int, int]:
    """(forecast pipeline seed, scenario seed) for one cell."""
    # the training seed, on purpose until ROADMAP item 3 reseeds (FOUND: _cell_seeds, CHANGES.md)
    return seed, cell_streams(seed)[1]


# (scheme, epsilon, gamma, n_priv): one forecast of a seed.  With n_priv None
# the whole group is forecast under the scheme; otherwise the group is split
# as in ``_hetero_split`` and the two sub-aggregate forecasts are summed.
ForecastKey = tuple[str, float | None, float | None, int | None]
Forecast = tuple[LoadSeries, float]  # next-day forecast (kWh) and its backtest WAPE


def _forecast_key(name: str, eps: float | None, gam: float | None) -> ForecastKey:
    """The forecast a scheme cell prices.  nhhs takes the hhs-dlcsys daily
    pipeline with the same seed, so the two cells share one forecast."""
    return ("hhs-dlcsys", None, None, None) if name == "nhhs" else (name, eps, gam, None)


def _sweep_key(ctx: ExperimentContext, cfg: ExperimentConfig, p: float) -> ForecastKey:
    """The forecast a heterogeneity row at fraction p prices, at the grid's
    first epsilon and gamma: hhs-ehh when p rounds to no private meter,
    hhs-ddp when it rounds to all of them, the split otherwise."""
    eps, gam = cfg.epsilon_grid[0], cfg.gamma_grid[0]
    n = ctx.group_panel.n_meters
    n_priv = round(p * n)
    if n_priv == 0:
        return ("hhs-ehh", None, None, None)
    return ("hhs-ddp", eps, gam, None if n_priv == n else n_priv)


@dataclass(frozen=True)
class ExperimentContext:
    """What every cell of one experiment shares; built once by run_experiment
    from the memoized system profile and group and the experiment's market."""

    dlc_sys: DlcProfile
    group_panel: MeterPanel
    group_label: str
    group_kld: float
    market: tuple


@dataclass(frozen=True)
class CellOutcome:
    """The numbers a result row takes from one forecast and solve."""

    wape: float
    expected_cost: float
    cvar: float
    objective: float


def _hetero_split(group_panel: MeterPanel, n_priv: int, seed: int) -> tuple[MeterPanel, MeterPanel]:
    """The ``n_priv`` meters drawn from the seed, 0 < n_priv < n, and the rest."""
    split_rng = np.random.default_rng(cell_streams(seed)[2])
    priv_idx = np.sort(split_rng.choice(group_panel.n_meters, size=n_priv, replace=False))
    priv = set(priv_idx.tolist())
    priv_ids = [group_panel.meters[i].meter_id for i in priv_idx]
    rest_ids = [m.meter_id for i, m in enumerate(group_panel.meters) if i not in priv]
    return group_panel.subset(priv_ids), group_panel.subset(rest_ids)


def _summed(group_panel: MeterPanel, fc_priv: ForecastResult, fc_rest: ForecastResult) -> Forecast:
    """Sum of the private and raw sub-aggregate forecasts; its backtest WAPE
    against the whole group."""
    combined = LoadSeries(
        "hetero-forecast",
        fc_priv.forecast.start,
        fc_priv.forecast.values + fc_rest.forecast.values,
    )
    backtest = fc_priv.backtest.values + fc_rest.backtest.values
    return combined, backtest_wape(aggregate_panel(group_panel), backtest).value


def _forecast_phase(
    ctx: ExperimentContext, cfg: ExperimentConfig, seed: int, keys: list[ForecastKey]
) -> dict[ForecastKey, Forecast | Exception]:
    """Every forecast in ``keys`` for one seed, trained as one stack.

    A split key forecasts its ``n_priv`` meters under its scheme and the
    rest under hhs-ehh.  A forecast that cannot be built or trained maps to
    its exception (for a split, the private part's first).
    """
    fc_seed, _ = _cell_seeds(seed)
    out: dict[ForecastKey, Forecast | Exception] = {}
    requests, parts = [], {}
    for key in keys:
        name, eps, gam, n_priv = key
        try:
            scheme = _scheme_of(name, eps, gam)
            if n_priv is None:
                pipelines = [(scheme, ctx.group_panel)]
            else:
                priv, rest = _hetero_split(ctx.group_panel, n_priv, seed)
                pipelines = [(scheme, priv), (SettlementScheme.hhs_ehh(), rest)]
            reqs = [forecast_request(s, p, ctx.dlc_sys, cfg.train, fc_seed) for s, p in pipelines]
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            out[key] = exc
            continue
        parts[key] = slice(len(requests), len(requests) + len(reqs))
        requests += reqs
    try:
        results = forecast_schemes(requests)
    except Exception as exc:  # noqa: BLE001 - a stack-wide failure fails its cells
        results = [exc] * len(requests)
    for key, where in parts.items():
        fcs = results[where]
        failed = [fc for fc in fcs if isinstance(fc, Exception)]
        if failed:
            out[key] = failed[0]
        elif len(fcs) == 1:
            out[key] = (fcs[0].forecast, fcs[0].wape_backtest.value)
        else:
            try:
                out[key] = _summed(ctx.group_panel, *fcs)
            except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                out[key] = exc
    return out


def run_cell(
    forecast: Forecast | Exception, seed: int, ctx: ExperimentContext, cfg: ExperimentConfig
) -> CellOutcome | Exception:
    """Price and solve one cell's forecast with the seed's scenarios; a
    failure is returned, not raised.  A failed forecast is the cell's
    failure."""
    if isinstance(forecast, Exception):
        return forecast
    fc, wape_value = forecast
    _, scen_seed = _cell_seeds(seed)
    try:
        inst = forecast_to_instance(fc, wape_value, ctx.market, cfg, scen_seed)
        sol = solve(build_milp(inst), tol=cfg.solver_tol)
        if sol.status != "optimal":
            where = f": {sol.infeasible_row}" if sol.infeasible_row else ""
            raise RuntimeError(f"procurement {sol.status}{where}")
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        return exc
    return CellOutcome(wape_value, sol.expected_cost, sol.cvar, sol.objective)


def _add_row(results, failures, label: str, out, ctx: ExperimentContext, **fields) -> None:
    """Append the row built from ``out``, or the failure that stops it."""
    if not isinstance(out, Exception):
        try:
            row = SchemeResult(group=ctx.group_label, kld=ctx.group_kld, **fields, **vars(out))
            results.append(row)
            return
        except ValueError as exc:  # a number that is not finite
            out = exc
    failures.append(f"{label}: {out}")
    _log.warning("cell failed: %s: %s", label, out)


def run_experiment(cfg: ExperimentConfig) -> tuple[list[SchemeResult], list[str]]:
    """All (scheme, epsilon, gamma, seed) cells; failures abort only their cell.

    Builds one outcome table keyed by (seed, ``ForecastKey``).  Each seed
    first runs a forecast phase: every forecast that seed needs (each
    scheme cell's, the heterogeneity endpoints' and each split's private
    and rest forecasts) trains in one ``forecast_schemes`` stack, so one
    stack's inputs are held at a time.  Each distinct forecast is then
    solved once.  The scheme rows read the table through ``_forecast_key``
    and the heterogeneity rows through ``_sweep_key``.

    The system profile and the group are built on the first call for a
    panel source and grouping and reused by later calls (``_built_group``);
    the market is built on every call.
    """
    dlc_sys, group_panel, group_label, group_kld = _built_group(_group_source(cfg))
    reference = _reference_day(group_panel, cfg.market.sample_share)
    market = make_market(reference, cfg.n_scenarios, cfg.market, cfg.group_seed)
    ctx = ExperimentContext(dlc_sys, group_panel, group_label, group_kld, market)

    ddp = [("hhs-ddp", eps, gam) for eps in cfg.epsilon_grid for gam in cfg.gamma_grid]
    grid = [c for s in cfg.schemes for c in (ddp if s == "hhs-ddp" else [(s, None, None)])]
    keys = [_forecast_key(*cell) for cell in grid]
    if cfg.hetero_p:
        keys += [_sweep_key(ctx, cfg, p) for p in (0.0, 1.0, *cfg.hetero_p)]
    keys = list(dict.fromkeys(keys))
    outcomes: dict[tuple[int, ForecastKey], CellOutcome | Exception] = {}
    for seed in cfg.seeds:
        for key, fc in _forecast_phase(ctx, cfg, seed, keys).items():
            outcomes[seed, key] = run_cell(fc, seed, ctx, cfg)

    results: list[SchemeResult] = []
    failures: list[str] = []
    for name, eps, gam in grid:
        for seed in cfg.seeds:
            label = f"{name}(eps={eps},gamma={gam},seed={seed})"
            fields = dict(scheme=name, epsilon=eps, gamma=gam, p=None, seed=seed)
            out = outcomes[seed, _forecast_key(name, eps, gam)]
            _add_row(results, failures, label, out, ctx, **fields)
    results.sort(key=SchemeResult.sort_key)
    if cfg.hetero_p:
        hetero, hfail = heterogeneity_sweep(ctx, cfg, outcomes)
        results.extend(hetero)
        failures.extend(hfail)
    return results, failures


def heterogeneity_sweep(
    ctx: ExperimentContext,
    cfg: ExperimentConfig,
    outcomes: dict[tuple[int, ForecastKey], CellOutcome | Exception],
) -> tuple[list[SchemeResult], list[str]]:
    """Cost of serving a group where only a fraction p demands privacy.

    Assembles rows from ``outcomes``, the table ``run_experiment`` builds,
    which must hold ``_sweep_key``'s forecast for every seed, p and
    endpoint; it solves nothing and leaves ``outcomes`` as it is.  Privacy
    is that of the grid's first epsilon and gamma.  The endpoints p = 0
    and p = 1 are the hhs-ehh and hhs-ddp forecasts; a seed whose endpoint
    failed reports that failure and no row.  Also reports the
    probability-weighted reference cost
    ``p * cost(all private) + (1 - p) * cost(none private)`` per seed.
    """
    eps, gam = cfg.epsilon_grid[0], cfg.gamma_grid[0]
    results: list[SchemeResult] = []
    failures: list[str] = []
    endpoints: dict[int, tuple[CellOutcome, CellOutcome]] = {}

    for seed in cfg.seeds:
        ends = [outcomes[seed, _sweep_key(ctx, cfg, p)] for p in (0.0, 1.0)]
        for p, out in zip((0.0, 1.0), ends):
            if isinstance(out, Exception):
                failures.append(f"hetero endpoint p={p} seed={seed}: {out}")
                _log.warning("cell failed: hetero p=%s seed=%s: %s", p, seed, out)
        if not any(isinstance(out, Exception) for out in ends):
            endpoints[seed] = (ends[0], ends[1])

    for p in cfg.hetero_p:
        for seed in cfg.seeds:
            if seed not in endpoints:
                continue
            ehh, ddp = endpoints[seed]
            omega_exp = p * ddp.expected_cost + (1.0 - p) * ehh.expected_cost
            fields = dict(scheme="hetero", epsilon=eps, gamma=gam, p=float(p), seed=seed)
            label = f"hetero p={p} seed={seed}"
            out = outcomes[seed, _sweep_key(ctx, cfg, p)]
            _add_row(results, failures, label, out, ctx, omega_exp=omega_exp, **fields)
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


RESULT_COLUMNS = [f.name for f in dataclasses.fields(SchemeResult)]

# (file, columns, whether its rows are the heterogeneity sweep's or the rest)
_REPORT_TABLES = (
    ("kld_wape.csv", ["kld", "scheme", "epsilon", "gamma", "seed", "wape"], False),
    ("scheme_wape.csv", ["group", "scheme", "epsilon", "gamma", "seed", "wape"], False),
    (
        "costs.csv",
        ["scheme", "epsilon", "gamma", "seed", "wape", "expected_cost", "cvar", "objective"],
        False,
    ),
    (
        "hetero.csv",
        ["p", "epsilon", "gamma", "seed", "wape", "expected_cost", "cvar", "omega_exp"],
        True,
    ),
)


def _write_table(path, columns: list[str], results: list[SchemeResult]) -> None:
    write_csv(path, columns, ([getattr(r, c) for c in columns] for r in results))


def write_results_csv(results: list[SchemeResult], path) -> None:
    _write_table(path, RESULT_COLUMNS, results)


# the parser of each RESULT_COLUMNS cell, by its field's annotation: float by
# default, and an empty cell of an optional field is None
_CELL_PARSERS = [
    {"str": str, "int": int, "float | None": lambda c: float(c) if c else None}.get(f.type, float)
    for f in dataclasses.fields(SchemeResult)
]


def read_results_csv(path) -> list[SchemeResult]:
    """Rows written by ``write_results_csv``; a table that lacks one of
    ``RESULT_COLUMNS`` or has no rows raises ``ValueError``, and so does a
    cell its field's parser rejects (an empty cell is ``None`` only where
    the field may be ``None``)."""
    return [
        SchemeResult(*(parse(cell) for parse, cell in zip(_CELL_PARSERS, row)))
        for row in read_csv(path, "results", RESULT_COLUMNS)
    ]


def report(results: list[SchemeResult], out_dir, cfg: ExperimentConfig) -> list[str]:
    """Write the plot-ready tables; returns the file names written."""
    if not results:
        raise ValueError("result table is empty; nothing to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = sorted(results, key=SchemeResult.sort_key)
    write_results_csv(rows, out / "results.csv")
    for name, columns, hetero in _REPORT_TABLES:
        _write_table(out / name, columns, [r for r in rows if (r.scheme == "hetero") == hetero])

    main = [r for r in rows if r.scheme != "hetero"]
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
    return ["results.csv", *(name for name, _, _ in _REPORT_TABLES), "metadata.json"]


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
