"""Short-term load forecasting with a small MLP, one pipeline per scheme.

The half-hourly model maps eight features (week-of-year, day-of-week,
settlement period, five lagged loads at offsets {48, 49, 95, 96, 144}) to
the next period's kWh through a four-neuron ReLU hidden layer trained by
mini-batch gradient descent on mean squared error.  Daily-resolution
schemes reuse the same architecture with day-level lags {1, 2, 7} and
spread the predicted daily energy over the system load shape.

Features are built for a whole range of periods (or days) at once: the
calendar columns elementwise, the lags in one gather.  Each pipeline builds
one matrix, trains on the rows before the 14-day holdout and predicts the
holdout and the next day in one batch.

Features and targets are z-scored once with training-set statistics; the
inverse transform is applied at prediction time, which keeps one fixed
learning rate workable across kWh magnitudes from single meters to
aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .domain import (
    HHS_DDP,
    HHS_DLC_SYS,
    HHS_EHH,
    NHHS,
    PERIODS_PER_DAY,
    DlcProfile,
    LoadSeries,
    MeterPanel,
    SettlementScheme,
    aggregate_panel,
    daily_energy,
    day_of_week,
    settlement_period,
    spread_daily,
    week_of_year,
)
from .metrics import WapeScore, wape
from .privacy import privatize_aggregate

H = PERIODS_PER_DAY
LAG_OFFSETS = (H, H + 1, 2 * H - 1, 2 * H, 3 * H)
DAILY_LAG_OFFSETS = (1, 2, 7)
HIDDEN_WIDTH = 4
BACKTEST_DAYS = 14


def build_features(history: LoadSeries, t) -> np.ndarray:
    """Features for predicting global period ``t`` from ``history``.

    ``t`` is one period or an array of them, and the result is one row of
    eight features or one row per period: week of year, day of week and
    settlement period, then the loads at the five lag offsets, taken in one
    gather ``values[t - LAG_OFFSETS - start]``.  Every lag must fall inside
    the history; the smallest offset is one day, so a whole day ahead of the
    series end is reachable.
    """
    t = np.asarray(t)
    lo_needed = history.start + max(LAG_OFFSETS)
    hi_allowed = history.end - 1 + min(LAG_OFFSETS)
    bad = (t < lo_needed) | (t > hi_allowed)
    if np.any(bad):
        raise ValueError(
            f"period {t[bad][0]} lacks lag history (usable range [{lo_needed}, {hi_allowed}])"
        )
    lags = history.values[t[..., None] - np.array(LAG_OFFSETS) - history.start]
    calendar = np.stack([week_of_year(t), day_of_week(t), settlement_period(t)], axis=-1)
    return np.concatenate([calendar, lags], axis=-1)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 150
    batch_size: int = 64
    seed: int = 0
    early_stop_tol: float = 1e-6
    min_samples: int = 100

    def __post_init__(self):
        if self.learning_rate <= 0 or self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("learning rate, epochs, and batch size must be positive")
        if self.early_stop_tol <= 0 or self.min_samples <= 0:
            raise ValueError("early-stop tolerance and sample floor must be positive")


@dataclass
class MlpModel:
    """Input -> 4 ReLU units -> linear output, with scaling statistics."""

    w1: np.ndarray  # (n_features, 4)
    b1: np.ndarray  # (4,)
    w2: np.ndarray  # (4,)
    b2: float
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float
    epoch_losses: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.w1.shape[1] != HIDDEN_WIDTH or self.b1.shape != (HIDDEN_WIDTH,):
            raise ValueError(f"hidden layer must have exactly {HIDDEN_WIDTH} units")
        for arr in (self.w1, self.b1, self.w2):
            if not np.all(np.isfinite(arr)):
                raise ValueError("model parameters must be finite")

    @property
    def n_features(self) -> int:
        return self.w1.shape[0]


def _forward(model: MlpModel, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and the output for standardized rows ``xs``."""
    a1 = np.maximum(xs @ model.w1 + model.b1, 0.0)
    return a1, a1 @ model.w2 + model.b2


def _gradient(model: MlpModel, xs: np.ndarray, ys: np.ndarray):
    """Residuals and the exact gradient of the mean squared error on
    standardized rows, as ``(r, d_w1, d_b1, d_w2, d_b2)``."""
    a1, pred = _forward(model, xs)
    r = pred - ys
    dl_dpred = 2.0 * r / xs.shape[0]
    dz1 = np.outer(dl_dpred, model.w2) * (a1 > 0)
    return r, xs.T @ dz1, dz1.sum(axis=0), a1.T @ dl_dpred, float(dl_dpred.sum())


def loss_and_gradient(
    model: MlpModel, X: np.ndarray, y: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean squared error on standardized data and its exact gradient."""
    xs = (X - model.x_mean) / model.x_std
    ys = (y - model.y_mean) / model.y_std
    r, d_w1, d_b1, d_w2, d_b2 = _gradient(model, xs, ys)
    return float((r**2).mean()), {"w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2}


def pack_parameters(model: MlpModel) -> np.ndarray:
    return np.concatenate([model.w1.ravel(), model.b1, model.w2, [model.b2]])


def with_parameters(model: MlpModel, flat: np.ndarray) -> MlpModel:
    d = model.n_features
    w1 = flat[: d * HIDDEN_WIDTH].reshape(d, HIDDEN_WIDTH).copy()
    b1 = flat[d * HIDDEN_WIDTH : d * HIDDEN_WIDTH + HIDDEN_WIDTH].copy()
    w2 = flat[d * HIDDEN_WIDTH + HIDDEN_WIDTH : d * HIDDEN_WIDTH + 2 * HIDDEN_WIDTH].copy()
    b2 = float(flat[-1])
    return MlpModel(
        w1, b1, w2, b2, model.x_mean, model.x_std, model.y_mean, model.y_std
    )


def train(dataset, cfg: TrainConfig) -> MlpModel:
    """Mini-batch gradient descent at a fixed learning rate on ``(X, y)``.

    The rows are standardized once; each step takes the gradient of one
    mini-batch of the standardized rows.  Deterministic for a fixed seed.
    Stops early once the epoch loss changes by less than ``early_stop_tol``
    (relative to the initial loss); diverging losses or non-finite data are
    hard errors.
    """
    X, y = (np.asarray(a, dtype=float) for a in dataset)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("dataset must pair one feature row with one target")
    n, d = X.shape
    if n < cfg.min_samples:
        raise ValueError(f"need at least {cfg.min_samples} samples, got {n}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("dataset contains non-finite values")

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

    xs = (X - x_mean) / x_std
    ys = (y - y_mean) / y_std
    prev = None
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            _, d_w1, d_b1, d_w2, d_b2 = _gradient(model, xs[idx], ys[idx])
            model.w1 -= cfg.learning_rate * d_w1
            model.b1 -= cfg.learning_rate * d_b1
            model.w2 -= cfg.learning_rate * d_w2
            model.b2 -= cfg.learning_rate * d_b2
        _, pred = _forward(model, xs)
        loss_std = float(((pred - ys) ** 2).mean())
        loss = loss_std * y_std**2
        model.epoch_losses.append(loss)
        if not np.isfinite(loss) or loss > 1e12:
            raise ValueError("training diverged")
        if prev is not None and abs(prev - loss) < cfg.early_stop_tol * max(
            model.epoch_losses[0], 1e-12
        ):
            break
        prev = loss
    return model


def predict(model: MlpModel, x) -> float:
    """Point forecast in kWh for one feature row."""
    return float(predict_batch(model, np.asarray(x, dtype=float)[None, :])[0])


def predict_batch(model: MlpModel, X: np.ndarray) -> np.ndarray:
    xs = (np.asarray(X, dtype=float) - model.x_mean) / model.x_std
    _, pred = _forward(model, xs)
    return pred * model.y_std + model.y_mean


def save_model(model: MlpModel, path) -> None:
    """Flat text format: a shape header then one row-major array per line."""
    d = model.n_features
    with open(path, "w") as fh:
        fh.write(f"mlp {d} {HIDDEN_WIDTH} 1\n")
        for arr in (
            model.x_mean,
            model.x_std,
            np.array([model.y_mean, model.y_std]),
            model.w1.ravel(),
            model.b1,
            model.w2,
            np.array([model.b2]),
        ):
            fh.write(" ".join(repr(float(v)) for v in arr) + "\n")


def load_model(path) -> MlpModel:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "mlp":
            raise ValueError("not a saved forecast model")
        d, h, o = (int(v) for v in header[1:])
        if h != HIDDEN_WIDTH or o != 1:
            raise ValueError(f"unsupported layer shapes {d} {h} {o}")
        rows = [np.array([float(v) for v in fh.readline().split()]) for _ in range(7)]
    x_mean, x_std, ystats, w1, b1, w2, b2 = rows
    return MlpModel(
        w1=w1.reshape(d, HIDDEN_WIDTH),
        b1=b1,
        w2=w2,
        b2=float(b2[0]),
        x_mean=x_mean,
        x_std=x_std,
        y_mean=float(ystats[0]),
        y_std=float(ystats[1]),
    )


# --------------------------------------------------------------------------
# Scheme pipelines
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ForecastResult:
    """Next-day forecast plus its held-out backtest accuracy."""

    forecast: LoadSeries  # 48 periods starting at the panel's end
    wape_backtest: WapeScore
    backtest: LoadSeries  # predictions over the held-out window
    model: MlpModel


def _daily_features(daily: np.ndarray, start: int, days) -> np.ndarray:
    """Week of year, day of week and the loads at the daily lag offsets,
    one row per day in ``days``."""
    days = np.asarray(days)
    t0 = start + days * PERIODS_PER_DAY
    lags = daily[days[..., None] - np.array(DAILY_LAG_OFFSETS)]
    calendar = np.stack([week_of_year(t0), day_of_week(t0)], axis=-1)
    return np.concatenate([calendar, lags], axis=-1)


def _seeds(seed: int) -> tuple[np.random.SeedSequence, np.random.SeedSequence]:
    noise_seed, train_seed = np.random.SeedSequence(seed).spawn(2)
    return noise_seed, train_seed


def forecast_scheme(
    scheme: SettlementScheme,
    panel: MeterPanel,
    dlc_sys: DlcProfile,
    cfg: TrainConfig,
    seed: int,
) -> ForecastResult:
    """Day-ahead forecast of the panel aggregate under one scheme.

    The backtest holds out the trailing 14 days and always scores against
    the true aggregate; the training inputs are whatever the scheme makes
    visible (true half-hourly data, daily energies plus the system shape,
    or a noised aggregate whose noise also feeds the lag features).  One
    feature matrix runs from the first period (or day) with full lag
    history to the end of the next day: the model trains on the rows
    before the holdout and predicts the holdout and the next day together.
    """
    truth = aggregate_panel(panel)
    n = len(truth)
    if n % PERIODS_PER_DAY != 0:
        raise ValueError("panel must cover whole days")
    n_days = n // PERIODS_PER_DAY
    if n_days <= BACKTEST_DAYS + max(DAILY_LAG_OFFSETS):
        raise ValueError(f"panel too short: {n_days} days")
    noise_seed, train_seed = _seeds(seed)
    cfg = replace(cfg, seed=int(np.random.default_rng(train_seed).integers(2**31 - 1)))
    holdout_start = truth.end - BACKTEST_DAYS * PERIODS_PER_DAY

    if scheme.kind in (NHHS, HHS_DLC_SYS):
        daily = daily_energy(truth)
        cfg = replace(
            cfg, batch_size=min(cfg.batch_size, 16), min_samples=min(cfg.min_samples, 21)
        )
        days = np.arange(max(DAILY_LAG_OFFSETS), n_days + 1)
        X = _daily_features(daily, truth.start, days)
        n_train = n_days - BACKTEST_DAYS - days[0]
        model = train((X[:n_train], daily[days[:n_train]]), cfg)
        predicted = spread_daily(predict_batch(model, X[n_train:]), holdout_start, dlc_sys).values
    else:
        if scheme.kind == HHS_DDP:
            series = privatize_aggregate(panel, scheme.privacy, noise_seed)
        else:
            series = truth
        t = np.arange(series.start + max(LAG_OFFSETS), series.end + PERIODS_PER_DAY)
        X = build_features(series, t)
        n_train = holdout_start - t[0]
        model = train((X[:n_train], series.values[t[:n_train] - series.start]), cfg)
        predicted = predict_batch(model, X[n_train:])

    backtest = LoadSeries("backtest", holdout_start, predicted[:-PERIODS_PER_DAY])
    forecast = LoadSeries("forecast", truth.end, predicted[-PERIODS_PER_DAY:])
    score = wape(truth.values[holdout_start - truth.start :], backtest.values)
    return ForecastResult(forecast, score, backtest, model)
