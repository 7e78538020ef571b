"""Short-term load forecasting with a small MLP, one pipeline per scheme.

The half-hourly model maps eight features (week-of-year, day-of-week,
settlement period, five lagged loads at offsets {48, 49, 95, 96, 144}) to
the next period's kWh through a four-neuron ReLU hidden layer trained by
mini-batch gradient descent on mean squared error.  Daily-resolution
schemes reuse the same architecture with day-level lags {1, 2, 7} and
spread the predicted daily energy over the system load shape.

Features are built for a whole range of periods (or days) at once: the
calendar columns elementwise, the lags in one gather.  Each pipeline
(``forecast_request``) builds one matrix whose rows before the 14-day
holdout are its training set; ``finish_forecast`` predicts the holdout and
the next day in one batch and scores the backtest.

Training has one path, for one model or many: ``train_many`` stacks the
requests that share a shape, a schedule and a seed along a model axis and
steps them together through one batched gradient kernel, so a step costs
about as much numpy overhead for nine models as for one.  A step allocates
nothing.  Standardized rows are stored batch-major, (n, K, d); each epoch
gathers them once, in the order of the stack's one permutation, with one
``np.take`` into a preallocated buffer of that shape, and each mini-batch
is a view of it.  Hidden activations stay batch-major, (B, K, 4), so the
bias terms run over K * 4 contiguous values and the first-layer bias
gradient sums over the leading axis; outputs and residuals stay
model-major, (K, B), so each output-bias gradient is the pairwise sum a
lone model takes.  Parameters are stored layer by layer, so each layer of
the stack is contiguous.  Every intermediate, and the epoch-loss forward
pass, is written into buffers built once per stack and again only when a
member leaves it.  The output gradient is ``r / (B / 2)``, which equals
``2r / B`` bit for bit because doubling a float is exact.  Each slice of
the kernel makes the same BLAS call and the same reduction as a lone
model, so every model is bit for bit the one it would be alone; ``train``
is the one-model form and ``forecast_schemes`` trains many pipelines in
one call.

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
    NHHS,
    PERIODS_PER_DAY,
    DlcProfile,
    LoadSeries,
    MeterPanel,
    SettlementScheme,
    _check_fields,
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
    """Training hyperparameters.  Every scheme pipeline (``forecast_request``)
    replaces ``seed`` with one drawn from its cell seed, so an experiment
    config's ``train.seed`` has no effect."""

    learning_rate: float = 0.05
    epochs: int = 150
    batch_size: int = 64
    seed: int = 0
    early_stop_tol: float = 1e-6
    min_samples: int = 100

    def __post_init__(self):
        _check_fields(
            self,
            integers=("epochs", "batch_size", "min_samples", "seed"),
            reals=("learning_rate", "early_stop_tol"),
        )
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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
        if self.w1.ndim != 2 or self.w1.shape[1] != HIDDEN_WIDTH:
            raise ValueError(f"hidden layer must have exactly {HIDDEN_WIDTH} units")
        if self.b1.shape != (HIDDEN_WIDTH,) or self.w2.shape != (HIDDEN_WIDTH,):
            raise ValueError(f"hidden bias and output weights must have {HIDDEN_WIDTH} entries")
        d = self.n_features
        if np.shape(self.x_mean) != (d,) or np.shape(self.x_std) != (d,):
            raise ValueError(f"feature mean and scale must have {d} entries, one per feature")
        for arr in (self.w1, self.b1, self.w2, self.b2):
            if not np.all(np.isfinite(arr)):
                raise ValueError("model parameters must be finite")
        for arr in (self.x_mean, self.x_std, self.y_mean, self.y_std):
            if not np.all(np.isfinite(arr)):
                raise ValueError("scaling statistics must be finite")
        if not (np.all(self.x_std > 0) and self.y_std > 0):
            raise ValueError("feature and target scales must be positive")

    @property
    def n_features(self) -> int:
        return self.w1.shape[0]


def _layers(flat: np.ndarray, k: int, d: int):
    """Views ``(w1, b1, w2, b2)`` of the parameters of a stack of K models,
    stored layer by layer in ``flat``: every model's first-layer weights,
    then every model's hidden biases, output weights and output bias.  They
    are shaped (K, d, 4), (K, 4), (K, 4, 1) and (K, 1), as the kernel reads
    them, and each is contiguous; at K = 1 ``flat`` is ``pack_parameters``."""
    h = HIDDEN_WIDTH
    e1, e2, e3 = k * d * h, k * (d + 1) * h, k * (d + 2) * h  # where w1, b1 and w2 end
    return (
        flat[:e1].reshape(k, d, h),
        flat[e1:e2].reshape(k, h),
        flat[e2:e3].reshape(k, h, 1),
        flat[e3:].reshape(k, 1),
    )


def _member(layers, j: int):
    """``(w1, b1, w2, b2)`` of stack slot ``j``, copied out of ``layers``."""
    w1, b1, w2, b2 = layers
    return w1[j].copy(), b1[j].copy(), w2[j, :, 0].copy(), float(b2[j, 0])


class _Batch:
    """One mini-batch of a stack of K models: rows ``x`` (B, K, d), targets
    ``y`` (K, B), and the kernel's work buffers with the views of them that
    a step reads.  Hidden activations, their ReLU mask and their gradient
    are batch-major, (B, K, 4); outputs, residuals and the output gradient
    model-major, (K, B) (see the module docstring for why).  A batch built
    with ``work``, an earlier batch at least as long, uses its buffers, so
    every mini-batch of an epoch shares one set.
    """

    def __init__(self, x: np.ndarray, y, work: _Batch | None = None):
        b, k, _ = x.shape
        if work is None:
            hidden = (b, k, HIDDEN_WIDTH)
            a, on, dz = np.empty(hidden), np.empty(hidden, bool), np.empty(hidden)
            self.buffers = a, on, dz, np.empty((k, b)), np.empty((k, b))
        else:
            self.buffers = work.buffers
        a, on, dz, r, dl = self.buffers
        self.y = y
        self.x, self.x_t = x.transpose(1, 0, 2), x.transpose(1, 2, 0)  # (K, B, d), (K, d, B)
        self.a, self.on, self.dz = a[:b], on[:b], dz[:b]
        self.a_k, self.a_t = self.a.transpose(1, 0, 2), self.a.transpose(1, 2, 0)
        self.dz_k, self.dz_t = self.dz.transpose(1, 0, 2), self.dz.transpose(1, 2, 0)
        self.r, self.dl = r[:, :b], dl[:, :b]
        self.r_col, self.dl_col = self.r[:, :, None], self.dl[:, :, None]  # (K, B, 1)
        self.dl_mid = self.dl[:, None]  # (K, 1, B)
        self.half_rows = b / 2


def _forward(layers, batch: _Batch) -> np.ndarray:
    """Each model's outputs (K, B) on its rows of ``batch``, written into
    the batch's residual buffer."""
    w1, b1, w2, b2 = layers
    np.matmul(batch.x, w1, out=batch.a_k)
    np.add(batch.a, b1, out=batch.a)
    np.maximum(batch.a, 0.0, out=batch.a)
    np.matmul(batch.a_k, w2, out=batch.r_col)
    return np.add(batch.r, b2, out=batch.r)


def _gradient(layers, batch: _Batch, grads) -> np.ndarray:
    """Each model's residuals (K, B) on its rows of ``batch``; writes the
    exact gradient of its mean squared error into ``grads``, views shaped as
    ``layers``.  Each slice takes the same BLAS call and the same reduction
    as the lone model would, so it comes out bit for bit the same."""
    r = np.subtract(_forward(layers, batch), batch.y, out=batch.r)
    np.divide(r, batch.half_rows, out=batch.dl)  # = 2r / B: doubling is exact
    g_w1, g_b1, g_w2, g_b2 = grads
    np.add.reduce(batch.dl, axis=1, keepdims=True, out=g_b2)
    np.matmul(batch.a_t, batch.dl_col, out=g_w2)
    np.greater(batch.a, 0.0, out=batch.on)
    # iterate in C order over (K, 4, B) views: the inner loop runs over B
    np.multiply(batch.dl_mid, layers[2], out=batch.dz_t, order="C")
    np.multiply(batch.dz, batch.on, out=batch.dz)
    np.matmul(batch.x_t, batch.dz_k, out=g_w1)
    np.add.reduce(batch.dz, axis=0, out=g_b1)
    return r


def loss_and_gradient(
    model: MlpModel, X: np.ndarray, y: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean squared error on standardized data and its exact gradient,
    through the training kernel at a stack of one."""
    xs = (X - model.x_mean) / model.x_std
    ys = (y - model.y_mean) / model.y_std
    d = model.n_features
    params = pack_parameters(model)
    grads = _layers(np.empty_like(params), 1, d)
    r = _gradient(_layers(params, 1, d), _Batch(xs[:, None], ys[None]), grads)
    w1, b1, w2, b2 = _member(grads, 0)
    return float((r**2).mean()), {"w1": w1, "b1": b1, "w2": w2, "b2": b2}


def pack_parameters(model: MlpModel) -> np.ndarray:
    return np.concatenate([model.w1.ravel(), model.b1, model.w2, [model.b2]])


def with_parameters(model: MlpModel, flat: np.ndarray) -> MlpModel:
    layers = _layers(flat, 1, model.n_features)
    return MlpModel(*_member(layers, 0), model.x_mean, model.x_std, model.y_mean, model.y_std)


def _checked(dataset, cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    X, y = (np.asarray(a, dtype=float) for a in dataset)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("dataset must pair one feature row with one target")
    if X.shape[0] < cfg.min_samples:
        raise ValueError(f"need at least {cfg.min_samples} samples, got {X.shape[0]}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("dataset contains non-finite values")
    return X, y


def train_many(datasets, cfgs) -> list[MlpModel | Exception]:
    """Mini-batch gradient descent at a fixed learning rate, one model per
    ``(X, y)`` dataset and ``TrainConfig``; one model or one exception per
    request, in order.

    Requests that share ``(n, d, batch_size, epochs, learning_rate, seed)``
    train as one stack, and every step runs the gradient kernel on the
    whole stack.  A model draws its first-layer weights, then its output
    weights, then one permutation per epoch from ``default_rng(seed)``, so
    the members of a stack draw the same numbers: one stream starts them
    all, and each epoch one permutation orders every member's rows.  (The
    pipelines of one experiment cell seed share their training seed.)  Each
    member keeps its own standardization and its own loss checks.  A member
    whose epoch loss changes by less than ``early_stop_tol`` (relative to
    its first epoch's) stops, and one whose loss diverges fails; either
    leaves the stack.  The kernel computes each slice exactly as it would
    for that model alone, so the members left keep the same bits, and every
    model equals the one trained alone.  A request with too few samples, a
    target that is not one value per row, or non-finite data fails in its
    own slot.
    """
    out: list = [None] * len(datasets)
    stacks: dict[tuple, list[tuple[int, np.ndarray, np.ndarray, TrainConfig]]] = {}
    for i, (dataset, cfg) in enumerate(zip(datasets, cfgs, strict=True)):
        try:
            X, y = _checked(dataset, cfg)
        except ValueError as exc:
            out[i] = exc
            continue
        key = (*X.shape, cfg.batch_size, cfg.epochs, cfg.learning_rate, cfg.seed)
        stacks.setdefault(key, []).append((i, X, y, cfg))
    for members in stacks.values():
        for (i, *_), trained in zip(members, _train_stack(members)):
            out[i] = trained
    return out


def _train_stack(members) -> list[MlpModel | Exception]:
    """Train the members of one ``train_many`` stack; see there, and the
    module docstring for the layout of its rows and buffers."""
    _, X0, _, cfg0 = members[0]
    n, d = X0.shape
    batch, lr = cfg0.batch_size, cfg0.learning_rate
    k_all = len(members)
    xs = np.empty((n, k_all, d))
    ys = np.empty((n, k_all))
    params = np.zeros(k_all * (d * HIDDEN_WIDTH + 2 * HIDDEN_WIDTH + 1))
    w1, _, w2, _ = _layers(params, k_all, d)
    rng = np.random.default_rng(cfg0.seed)  # the stream of every member
    w1[:] = rng.normal(0.0, np.sqrt(2.0 / d), (d, HIDDEN_WIDTH))
    w2[:, :, 0] = rng.normal(0.0, np.sqrt(2.0 / HIDDEN_WIDTH), HIDDEN_WIDTH)
    stats = []
    for k, (_, X, y, _) in enumerate(members):
        x_mean = X.mean(axis=0)
        x_std = X.std(axis=0)
        x_std = np.where(x_std < 1e-8, 1.0, x_std)
        y_mean = float(y.mean())
        y_std = float(y.std())
        y_std = y_std if y_std > 1e-8 else 1.0
        np.divide(np.subtract(X, x_mean, out=xs[:, k]), x_std, out=xs[:, k])
        np.divide(np.subtract(y, y_mean, out=ys[:, k]), y_std, out=ys[:, k])
        stats.append((x_mean, x_std, y_mean, y_std))

    out: list = [None] * k_all
    losses: list[list[float]] = [[] for _ in members]
    active = list(range(k_all))  # member of each stack slot

    def finish(layers, j: int, k: int) -> None:
        out[k] = MlpModel(*_member(layers, j), *stats[k], losses[k])

    rebuild = True
    for _ in range(cfg0.epochs):
        if rebuild:  # for the members left
            rebuild, k_now = False, len(active)
            x_epoch, y_epoch = np.empty_like(xs), np.empty_like(ys)
            first = _Batch(x_epoch[:batch], y_epoch[:batch].T)
            batches = [first] + [
                _Batch(x_epoch[start : start + batch], y_epoch[start : start + batch].T, first)
                for start in range(batch, n, batch)
            ]
            every_row = _Batch(xs, ys.T)  # for the epoch loss
            grad, scaled = np.empty_like(params), np.empty_like(params)
            layers, grads = _layers(params, k_now, d), _layers(grad, k_now, d)
            loss_std = np.empty((k_now, 1))
        order = rng.permutation(n)
        # "clip" never clips these in-range rows; "raise" would buffer ``out``
        np.take(xs, order, axis=0, out=x_epoch, mode="clip")
        np.take(ys, order, axis=0, out=y_epoch, mode="clip")
        for step in batches:
            _gradient(layers, step, grads)
            np.subtract(params, np.multiply(grad, lr, out=scaled), out=params)
        r = np.subtract(_forward(layers, every_row), every_row.y, out=every_row.r)
        np.add.reduce(np.square(r, out=r), axis=1, keepdims=True, out=loss_std)
        np.divide(loss_std, n, out=loss_std)
        keep = []
        for j, k in enumerate(active):
            loss = float(loss_std[j, 0]) * stats[k][3] ** 2
            history = losses[k]
            history.append(loss)
            tol = members[k][3].early_stop_tol * max(history[0], 1e-12)
            if not np.isfinite(loss) or loss > 1e12:
                out[k] = ValueError("training diverged")
            elif len(history) > 1 and abs(history[-2] - loss) < tol:
                finish(layers, j, k)
            else:
                keep.append(j)
        if len(keep) < k_now:
            if not keep:
                return out
            xs, ys = xs[:, keep], ys[:, keep]
            params = np.concatenate([a[keep].ravel() for a in layers])
            active = [active[j] for j in keep]
            rebuild = True
    for j, k in enumerate(active):
        finish(layers, j, k)
    return out


def train(dataset, cfg: TrainConfig) -> MlpModel:
    """One model through ``train_many``; a failed request raises its error."""
    (model,) = train_many([dataset], [cfg])
    if isinstance(model, Exception):
        raise model
    return model


def predict_batch(model: MlpModel, X: np.ndarray) -> np.ndarray:
    xs = (np.asarray(X, dtype=float) - model.x_mean) / model.x_std
    layers = _layers(pack_parameters(model), 1, model.n_features)
    pred = _forward(layers, _Batch(xs[:, None], None))
    return pred[0] * model.y_std + model.y_mean


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


def cell_streams(seed: int) -> tuple[np.random.SeedSequence, int, np.random.SeedSequence]:
    """(privacy noise, training seed, heterogeneity split) of one experiment
    cell seed: the three children of ``SeedSequence(seed)``, the training
    seed drawn once from the second.  Every random stream of a cell comes
    from here; ``experiment`` takes the training seed as its scenario seed."""
    noise, train, split = np.random.SeedSequence(seed).spawn(3)
    return noise, int(np.random.default_rng(train).integers(2**31 - 1)), split


def backtest_wape(truth: LoadSeries, backtest) -> WapeScore:
    """WAPE of ``backtest`` against the trailing ``BACKTEST_DAYS`` days of
    ``truth``; every backtest, of one pipeline or a sum of them, is scored here."""
    return wape(truth.values[-BACKTEST_DAYS * PERIODS_PER_DAY :], backtest)


@dataclass(frozen=True)
class ForecastRequest:
    """One scheme pipeline up to training: what to train and how to finish.

    ``X`` runs from the first period (or day) with full lag history to the
    end of the next day; its first ``y.size`` rows are the training rows
    and the rest the holdout and the next day.  ``dlc_sys`` spreads
    predicted daily energies over the system shape; it is ``None`` for a
    half-hourly pipeline.
    """

    X: np.ndarray
    y: np.ndarray
    cfg: TrainConfig  # the scheme's, with the drawn training seed
    truth: LoadSeries  # the true aggregate the backtest scores against
    dlc_sys: DlcProfile | None

    @property
    def dataset(self) -> tuple[np.ndarray, np.ndarray]:
        return self.X[: self.y.size], self.y


def forecast_request(
    scheme: SettlementScheme,
    panel: MeterPanel,
    dlc_sys: DlcProfile,
    cfg: TrainConfig,
    seed: int,
) -> ForecastRequest:
    """The features, targets and train config of one scheme's pipeline.

    The training inputs are whatever the scheme makes visible: true
    half-hourly data, daily energies plus the system shape, or a noised
    aggregate whose noise also feeds the lag features.  The 14 trailing
    days are held out.
    """
    truth = aggregate_panel(panel)
    n = len(truth)
    if n % PERIODS_PER_DAY != 0:
        raise ValueError("panel must cover whole days")
    n_days = n // PERIODS_PER_DAY
    if n_days <= BACKTEST_DAYS + max(DAILY_LAG_OFFSETS):
        raise ValueError(f"panel too short: {n_days} days")
    noise_seed, train_seed, _ = cell_streams(seed)
    cfg = replace(cfg, seed=train_seed)
    holdout_start = truth.end - BACKTEST_DAYS * PERIODS_PER_DAY

    if scheme.kind in (NHHS, HHS_DLC_SYS):
        daily = daily_energy(truth)
        cfg = replace(
            cfg, batch_size=min(cfg.batch_size, 16), min_samples=min(cfg.min_samples, 21)
        )
        days = np.arange(max(DAILY_LAG_OFFSETS), n_days + 1)
        X = _daily_features(daily, truth.start, days)
        n_train = n_days - BACKTEST_DAYS - days[0]
        return ForecastRequest(X, daily[days[:n_train]], cfg, truth, dlc_sys)
    if scheme.kind == HHS_DDP:
        series = privatize_aggregate(panel, scheme.privacy, noise_seed)
    else:
        series = truth
    t = np.arange(series.start + max(LAG_OFFSETS), series.end + PERIODS_PER_DAY)
    X = build_features(series, t)
    n_train = holdout_start - t[0]
    return ForecastRequest(X, series.values[t[:n_train] - series.start], cfg, truth, None)


def finish_forecast(request: ForecastRequest, model: MlpModel) -> ForecastResult:
    """Predict the holdout and the next day in one batch, spread daily
    predictions, and score the backtest against the true aggregate."""
    truth = request.truth
    holdout_start = truth.end - BACKTEST_DAYS * PERIODS_PER_DAY
    predicted = predict_batch(model, request.X[request.y.size :])
    if request.dlc_sys is not None:
        predicted = spread_daily(predicted, holdout_start, request.dlc_sys).values
    backtest = LoadSeries("backtest", holdout_start, predicted[:-PERIODS_PER_DAY])
    forecast = LoadSeries("forecast", truth.end, predicted[-PERIODS_PER_DAY:])
    return ForecastResult(forecast, backtest_wape(truth, backtest.values), backtest, model)


def forecast_schemes(requests: list[ForecastRequest]) -> list[ForecastResult | Exception]:
    """Train every request in one ``train_many`` call and finish each; one
    result or one exception per request, in order."""
    models = train_many([r.dataset for r in requests], [r.cfg for r in requests])
    out: list[ForecastResult | Exception] = []
    for request, model in zip(requests, models):
        result = model
        if not isinstance(model, Exception):
            try:
                result = finish_forecast(request, model)
            except ValueError as exc:  # e.g. a holdout whose true load sums to 0
                result = exc
        out.append(result)
    return out


def forecast_scheme(
    scheme: SettlementScheme,
    panel: MeterPanel,
    dlc_sys: DlcProfile,
    cfg: TrainConfig,
    seed: int,
) -> ForecastResult:
    """Day-ahead forecast of the panel aggregate under one scheme.

    The one-request form of ``forecast_schemes``: the backtest holds out
    the trailing 14 days and always scores against the true aggregate
    (see ``forecast_request``); a failed training raises its error.
    """
    (result,) = forecast_schemes([forecast_request(scheme, panel, dlc_sys, cfg, seed)])
    if isinstance(result, Exception):
        raise result
    return result
