"""MLP forecaster: features, gradients, determinism, scheme pipelines."""

from dataclasses import replace

import numpy as np
import pytest

import dpmeter.forecast as forecast
from dpmeter.domain import LoadSeries, MeterPanel, SettlementScheme, compute_dlc
from dpmeter.forecast import (
    HIDDEN_WIDTH,
    LAG_OFFSETS,
    MlpModel,
    TrainConfig,
    build_features,
    forecast_request,
    forecast_scheme,
    forecast_schemes,
    load_model,
    loss_and_gradient,
    pack_parameters,
    predict_batch,
    save_model,
    train,
    train_many,
    with_parameters,
)
from dpmeter.privacy import PrivacyParams

from helpers import loop_build_features, loop_train


def ramp_series(n=400):
    return LoadSeries("ramp", 0, np.arange(n, dtype=float))


class TestFeatures:
    def test_lags_on_identity_ramp(self):
        row = build_features(ramp_series(), 144)
        np.testing.assert_array_equal(row[3:], [96, 95, 49, 48, 0])
        np.testing.assert_array_equal(row[:3], [1, 4, 1])  # week, weekday, period

    def test_lags_shift_with_t(self):
        row = build_features(ramp_series(), 145)
        np.testing.assert_array_equal(row[3:], [97, 96, 50, 49, 1])

    def test_constant_history(self):
        const = LoadSeries("c", 0, np.full(300, 7.5))
        for t in (144, 200, 250):
            np.testing.assert_array_equal(build_features(const, t)[3:], [7.5] * 5)

    def test_insufficient_history_raises(self):
        with pytest.raises(ValueError):
            build_features(ramp_series(), 143)

    def test_array_names_first_period_out_of_range(self):
        s = ramp_series(192)
        t = np.array([150, 192 + 48, 160, 143])
        with pytest.raises(ValueError, match=r"^period 240 lacks lag history"):
            build_features(s, t)
        with pytest.raises(ValueError, match=r"^period 143 lacks lag history"):
            build_features(s, t[[0, 2, 3]])

    def test_one_day_past_end_is_reachable(self):
        s = ramp_series(192)
        build_features(s, 192 + 47)  # last period of the next day
        with pytest.raises(ValueError):
            build_features(s, 192 + 48)


class TestFeatureParity:
    """``build_features`` equals the per-lag loop bit for bit."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        start = int(rng.integers(1, 5000))
        series = LoadSeries("r", start, rng.normal(3.0, 1.0, int(rng.integers(200, 900))))
        lo, end = start + max(LAG_OFFSETS), series.end
        next_day = np.arange(end, end + 48)
        for t in (lo, int(rng.integers(lo, end)), end - 1, end + 47):
            np.testing.assert_array_equal(
                build_features(series, t), loop_build_features(series, t)
            )
        for t in (np.arange(lo, end + 48), rng.integers(lo, end + 48, 37), next_day):
            expected = np.vstack([loop_build_features(series, int(p)) for p in t])
            got = build_features(series, t)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)


def linear_dataset(rng, n=400):
    X = np.column_stack(
        [
            rng.integers(1, 54, n),
            rng.integers(1, 8, n),
            rng.integers(1, 49, n),
            rng.uniform(0, 50, (n, 5)).T.reshape(5, n).T,
        ]
    )
    coef = np.array([0.1, -0.4, 0.05, 0.3, 0.2, -0.1, 0.15, 0.25])
    y = X @ coef + 3.0
    return X.astype(float), y


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("learning_rate", float("nan"), "learning_rate must be finite"),
            ("learning_rate", float("inf"), "learning_rate must be finite"),
            ("early_stop_tol", float("nan"), "early_stop_tol must be finite"),
            ("epochs", 2.5, "epochs must be an integer, got 2.5"),
            ("epochs", True, "epochs must be an integer, got True"),
            ("batch_size", 8.5, "batch_size must be an integer, got 8.5"),
            ("batch_size", 64.0, "batch_size must be an integer, got 64.0"),
            ("min_samples", False, "min_samples must be an integer, got False"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("seed", -1, "seed must be >= 0"),
        ],
    )
    def test_rejects_when_built(self, field, value, reason):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            TrainConfig(**{field: value})

    def test_accepts_numpy_integers(self):
        cfg = TrainConfig(epochs=np.int64(3), batch_size=np.int32(8), min_samples=np.int64(1))
        assert (cfg.epochs, cfg.batch_size, cfg.min_samples) == (3, 8, 1)


class TestTraining:
    def test_fits_noiseless_linear_map(self):
        rng = np.random.default_rng(0)
        X, y = linear_dataset(rng)
        cfg = TrainConfig(epochs=2000, learning_rate=0.05, seed=1, early_stop_tol=1e-9)
        model = train((X, y), cfg)
        rmse = float(np.sqrt(((predict_batch(model, X) - y) ** 2).mean()))
        assert rmse < 0.01 * y.std()

    def test_determinism(self):
        rng = np.random.default_rng(2)
        X, y = linear_dataset(rng)
        cfg = TrainConfig(epochs=40, seed=11)
        m1 = train((X, y), cfg)
        m2 = train((X, y), cfg)
        np.testing.assert_array_equal(pack_parameters(m1), pack_parameters(m2))

    def test_epoch_losses_non_increasing(self):
        rng = np.random.default_rng(3)
        X, y = linear_dataset(rng)
        model = train((X, y), TrainConfig(epochs=120, learning_rate=0.02, seed=4))
        losses = np.asarray(model.epoch_losses)
        slack = 1e-6 * max(losses[0], 1.0)
        assert np.all(np.diff(losses) <= slack)

    def test_rejects_nan(self):
        rng = np.random.default_rng(5)
        X, y = linear_dataset(rng)
        y[3] = np.nan
        with pytest.raises(ValueError):
            train((X, y), TrainConfig())

    def test_rejects_small_dataset(self):
        rng = np.random.default_rng(6)
        X, y = linear_dataset(rng, n=50)
        with pytest.raises(ValueError):
            train((X, y), TrainConfig(min_samples=100))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        X, y = linear_dataset(rng, n=120)
        model = train((X, y), TrainConfig(epochs=3, seed=8))
        flat = pack_parameters(model)
        _, grads = loss_and_gradient(model, X, y)
        analytic = np.concatenate(
            [grads["w1"].ravel(), grads["b1"], grads["w2"], [grads["b2"]]]
        )
        step = 1e-5
        n_checked = 0
        for i in range(flat.size):
            up, dn = flat.copy(), flat.copy()
            up[i] += step
            dn[i] -= step
            f_up, _ = loss_and_gradient(with_parameters(model, up), X, y)
            f_dn, _ = loss_and_gradient(with_parameters(model, dn), X, y)
            numeric = (f_up - f_dn) / (2 * step)
            denom = max(abs(numeric), abs(analytic[i]), 1e-8)
            assert abs(numeric - analytic[i]) / denom < 1e-4, f"coordinate {i}"
            n_checked += 1
        assert n_checked == flat.size  # 45 parameters for 8 inputs


class TestTrainingParity:
    """``train`` steps on rows standardized once through the shared kernel;
    the result equals the loop that standardizes each batch, bit for bit."""

    @staticmethod
    def assert_same(got, expected):
        np.testing.assert_array_equal(pack_parameters(got), pack_parameters(expected))
        assert got.epoch_losses == expected.epoch_losses

    @pytest.mark.parametrize("seed", range(20))
    def test_random_datasets(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(20, 300))
        X = rng.normal(rng.uniform(-5, 5, 8), rng.uniform(0.1, 20, 8), (n, 8))
        X[:, 0] = rng.integers(1, 54, n)  # integer calendar columns
        y = X @ rng.normal(0, 1, 8) + rng.normal(0, 0.3, n)
        cfg = TrainConfig(
            learning_rate=float(rng.uniform(0.005, 0.05)),
            epochs=int(rng.integers(2, 30)),
            batch_size=int(rng.integers(1, 80)),
            seed=seed,
            min_samples=1,
        )
        self.assert_same(train((X, y), cfg), loop_train(X, y, cfg))

    def test_partial_last_batch(self):
        rng = np.random.default_rng(1)
        X, y = linear_dataset(rng, n=203)
        cfg = TrainConfig(epochs=7, batch_size=50, seed=3)
        self.assert_same(train((X, y), cfg), loop_train(X, y, cfg))

    def test_batch_larger_than_dataset(self):
        rng = np.random.default_rng(2)
        X, y = linear_dataset(rng, n=120)
        for batch in (120, 500):
            cfg = TrainConfig(epochs=9, batch_size=batch, seed=4)
            self.assert_same(train((X, y), cfg), loop_train(X, y, cfg))

    def test_early_stop(self):
        rng = np.random.default_rng(3)
        X, y = linear_dataset(rng, n=150)
        cfg = TrainConfig(epochs=500, seed=5, early_stop_tol=1e-3)
        model = train((X, y), cfg)
        assert len(model.epoch_losses) < cfg.epochs
        self.assert_same(model, loop_train(X, y, cfg))


class TestStackedTraining:
    """``train_many`` trains each stack of like requests together; every model
    equals the one ``loop_train`` gives it alone, bit for bit."""

    @staticmethod
    def request(seed, n, d, batch_size, epochs=12, train_seed=None, **cfg):
        """Data drawn from ``seed``; trained from ``train_seed``, or ``seed``."""
        rng = np.random.default_rng(200 + seed)
        X = rng.normal(rng.uniform(-5, 5, d), rng.uniform(0.1, 20, d), (n, d))
        X[:, 0] = rng.integers(1, 54, n)
        y = X @ rng.normal(0, 1, d) + rng.normal(0, 0.3, n)
        seed = seed if train_seed is None else train_seed
        config = TrainConfig(
            epochs=epochs, batch_size=batch_size, seed=seed, min_samples=1, **cfg
        )
        return (X, y), config

    @staticmethod
    def stack_sizes(monkeypatch) -> list[int]:
        """The member count of every stack ``train_many`` trains from now on."""
        sizes, train_stack = [], forecast._train_stack

        def counted(members):
            sizes.append(len(members))
            return train_stack(members)

        monkeypatch.setattr(forecast, "_train_stack", counted)
        return sizes

    def test_stack_matches_loop(self):
        requests = [
            self.request(0, 203, 8, 50),  # partial last batch
            self.request(1, 203, 8, 50),
            self.request(2, 203, 8, 50, early_stop_tol=0.05),  # stops early
            self.request(3, 203, 8, 64),
            self.request(4, 40, 5, 500),  # batch larger than n
            self.request(5, 40, 5, 500),
            self.request(6, 40, 5, 16),
            self.request(7, 203, 8, 50, learning_rate=0.01),
        ]
        models = train_many(*zip(*requests))
        # the early stopper leaves the stack it shares with requests 0 and 1
        assert len(models[2].epoch_losses) < 12
        assert len(models[1].epoch_losses) == 12
        for ((X, y), cfg), model in zip(requests, models):
            TestTrainingParity.assert_same(model, loop_train(X, y, cfg))

    def test_failed_member_leaves_the_others(self):
        requests = [self.request(k, 120, 8, 32) for k in range(4)]
        (X, y), cfg = requests[1]
        requests[1] = (X, y), TrainConfig(epochs=12, batch_size=32, seed=1, min_samples=121)
        (X, y), cfg = requests[2]
        y = y.copy()
        y[5] = np.inf
        requests[2] = (X, y), cfg
        models = train_many(*zip(*requests))
        with pytest.raises(ValueError, match="need at least 121 samples, got 120"):
            raise models[1]
        with pytest.raises(ValueError, match="non-finite"):
            raise models[2]
        for k in (0, 3):
            (X, y), cfg = requests[k]
            TestTrainingParity.assert_same(models[k], loop_train(X, y, cfg))

    def test_malformed_target_fails_its_slot(self, monkeypatch):
        requests = [self.request(k, 120, 8, 32, train_seed=5) for k in range(3)]
        (X, y), cfg = requests[1]
        requests[1] = (X, y[:, None]), cfg  # (n, 1): n targets, but not one per row
        sizes = self.stack_sizes(monkeypatch)
        models = train_many(*zip(*requests))
        assert sizes == [2]
        with pytest.raises(ValueError, match="pair one feature row with one target"):
            raise models[1]
        for k in (0, 2):
            (X, y), cfg = requests[k]
            TestTrainingParity.assert_same(models[k], loop_train(X, y, cfg))

    def test_production_shape(self, monkeypatch):
        # a replicate's half-hourly stack: nine models on 1,872 rows with one
        # training seed, batches of 64 and a last batch of 16; one member stops
        # early, so the stack shrinks mid-training; and a daily model: 35 rows,
        # a last batch of 3
        requests = [self.request(k, 1872, 8, 64, epochs=4, train_seed=11) for k in range(9)]
        requests[4] = self.request(4, 1872, 8, 64, epochs=4, train_seed=11, early_stop_tol=0.2)
        requests.append(self.request(9, 35, 5, 16, epochs=4, train_seed=11))
        sizes = self.stack_sizes(monkeypatch)
        models = train_many(*zip(*requests))
        assert sizes == [9, 1]
        assert len(models[4].epoch_losses) < 4
        assert all(len(m.epoch_losses) == 4 for k, m in enumerate(models) if k != 4)
        for ((X, y), cfg), model in zip(requests, models):
            TestTrainingParity.assert_same(model, loop_train(X, y, cfg))

    def test_shared_seed_stack_sheds_members(self, monkeypatch):
        # requests that share a training seed share a stack, whatever their
        # data and early-stop tolerance; one stops early and one diverges
        requests = [self.request(k, 203, 8, 50, train_seed=3) for k in range(5)]
        requests[2] = self.request(2, 203, 8, 50, train_seed=3, early_stop_tol=0.05)
        (X, y), cfg = requests[4]
        requests[4] = (X, y * 1e9), cfg
        requests.append(self.request(5, 203, 8, 50, train_seed=4))  # its own stack
        sizes = self.stack_sizes(monkeypatch)
        models = train_many(*zip(*requests))
        assert sizes == [5, 1]
        assert len(models[2].epoch_losses) < 12
        assert [len(models[k].epoch_losses) for k in (0, 1, 3, 5)] == [12] * 4
        assert isinstance(models[4], ValueError) and str(models[4]) == "training diverged"
        for k in (0, 1, 2, 3, 5):
            (X, y), cfg = requests[k]
            TestTrainingParity.assert_same(models[k], loop_train(X, y, cfg))

    def test_diverged_member_leaves_the_others(self):
        requests = [self.request(k, 120, 8, 32) for k in range(3)]
        (X, y), cfg = requests[1]
        requests[1] = (X, y * 1e9), cfg
        models = train_many(*zip(*requests))
        assert isinstance(models[1], ValueError) and str(models[1]) == "training diverged"
        with pytest.raises(ValueError, match="training diverged"):
            train(*requests[1])
        for k in (0, 2):
            (X, y), cfg = requests[k]
            TestTrainingParity.assert_same(models[k], loop_train(X, y, cfg))

    def test_gradient_is_the_stacked_kernel(self):
        rng = np.random.default_rng(8)
        X, y = linear_dataset(rng, n=120)
        model = train((X, y), TrainConfig(epochs=2, seed=9))
        _, grads = loss_and_gradient(model, X, y)
        # written out term by term, as loop_train does
        xs = (X - model.x_mean) / model.x_std
        ys = (y - model.y_mean) / model.y_std
        z1 = xs @ model.w1 + model.b1
        dl = 2.0 * (np.maximum(z1, 0.0) @ model.w2 + model.b2 - ys) / xs.shape[0]
        dz1 = np.outer(dl, model.w2) * (z1 > 0)
        np.testing.assert_array_equal(grads["w1"], xs.T @ dz1)
        np.testing.assert_array_equal(grads["b1"], dz1.sum(axis=0))
        np.testing.assert_array_equal(grads["w2"], np.maximum(z1, 0.0).T @ dl)
        assert grads["b2"] == float(dl.sum())


class TestPredict:
    def test_zero_weight_model_returns_bias(self):
        model = MlpModel(
            w1=np.zeros((8, HIDDEN_WIDTH)),
            b1=np.zeros(HIDDEN_WIDTH),
            w2=np.zeros(HIDDEN_WIDTH),
            b2=1.25,
            x_mean=np.zeros(8),
            x_std=np.ones(8),
            y_mean=0.0,
            y_std=2.0,
        )
        row = np.concatenate([[1, 1, 1], np.arange(5.0)])
        assert predict_batch(model, row[None, :])[0] == pytest.approx(1.25 * 2.0)

    def test_hand_built_forward_pass(self):
        # 2 features, one active hidden unit: relu(1*x0 + 2*x1 + 0.5) * 3 - 1
        w1 = np.zeros((2, HIDDEN_WIDTH))
        w1[0, 0], w1[1, 0] = 1.0, 2.0
        b1 = np.array([0.5, 0, 0, 0.0])
        w2 = np.array([3.0, 0, 0, 0.0])
        model = MlpModel(
            w1=w1, b1=b1, w2=w2, b2=-1.0,
            x_mean=np.zeros(2), x_std=np.ones(2), y_mean=0.0, y_std=1.0,
        )
        x = np.array([2.0, 1.5])
        expected = max(2.0 + 3.0 + 0.5, 0.0) * 3.0 - 1.0
        assert predict_batch(model, x[None, :])[0] == pytest.approx(expected)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        X, y = linear_dataset(rng, n=150)
        model = train((X, y), TrainConfig(epochs=10, seed=10))
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        np.testing.assert_array_equal(pack_parameters(back), pack_parameters(model))
        np.testing.assert_array_equal(back.x_mean, model.x_mean)
        probe = rng.uniform(0, 30, (5, 8))
        np.testing.assert_array_equal(predict_batch(back, probe), predict_batch(model, probe))

    @pytest.mark.parametrize(
        "line, text, reason",
        [
            (6, "0.1 0.2 0.3 0.4 0.5", "output weights must have 4 entries"),
            (1, "0.0 1.0", "must have 8 entries, one per feature"),
            (2, " ".join(["1.0"] * 7 + ["0.0"]), "scales must be positive"),
            (2, " ".join(["1.0"] * 7 + ["nan"]), "scaling statistics must be finite"),
            (3, "nan 1.0", "scaling statistics must be finite"),
            (3, "0.0 0.0", "scales must be positive"),
            (7, "inf", "model parameters must be finite"),
        ],
        ids=["w2-5", "x_mean-2", "x_std-zero", "x_std-nan", "y_mean-nan", "y_std-zero", "b2-inf"],
    )
    def test_load_rejects_edited_file(self, tmp_path, line, text, reason):
        rng = np.random.default_rng(9)
        X, y = linear_dataset(rng, n=150)
        path = tmp_path / "model.txt"
        save_model(train((X, y), TrainConfig(epochs=3, seed=10)), path)
        lines = path.read_text().splitlines()
        lines[line] = text  # lines: header, x_mean, x_std, y stats, w1, b1, w2, b2
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=reason):
            load_model(path)


def synthetic_panel(rng, n_meters=12, n_weeks=6, evening_shift=0.0):
    """Small panel with a configurable evening peak for pipeline tests."""
    n = n_weeks * 336
    slots = np.arange(n) % 48
    base = (
        0.2
        + 0.5 * np.exp(-0.5 * ((slots - 17) / 3.0) ** 2)
        + 0.9 * np.exp(-0.5 * ((slots - (37 + evening_shift)) / 3.5) ** 2)
    )
    meters = []
    for i in range(n_meters):
        noise = rng.lognormal(-0.02, 0.2, n)
        scale = rng.lognormal(0.0, 0.25)
        meters.append(LoadSeries(f"m{i}", 0, base * noise * scale))
    return MeterPanel(tuple(meters))


FAST = TrainConfig(epochs=60, learning_rate=0.05, batch_size=64, seed=0)


class TestSchemePipelines:
    def test_nhhs_and_dlcsys_identical(self):
        rng = np.random.default_rng(12)
        panel = synthetic_panel(rng)
        dlc = compute_dlc(panel)
        a = forecast_scheme(SettlementScheme.nhhs(), panel, dlc, FAST, seed=5)
        b = forecast_scheme(SettlementScheme.hhs_dlc_sys(), panel, dlc, FAST, seed=5)
        np.testing.assert_array_equal(a.forecast.values, b.forecast.values)
        assert a.wape_backtest.value == b.wape_backtest.value

    def test_ddp_with_huge_epsilon_matches_ehh(self):
        rng = np.random.default_rng(13)
        panel = synthetic_panel(rng)
        dlc = compute_dlc(panel)
        ehh = forecast_scheme(SettlementScheme.hhs_ehh(), panel, dlc, FAST, seed=6)
        ddp = forecast_scheme(
            SettlementScheme.hhs_ddp(PrivacyParams(epsilon=1e12, gamma=0.0)),
            panel,
            dlc,
            FAST,
            seed=6,
        )
        np.testing.assert_allclose(ddp.forecast.values, ehh.forecast.values, atol=1e-6)
        assert ddp.wape_backtest.value == pytest.approx(ehh.wape_backtest.value, abs=1e-6)

    def test_shifted_peak_group_favors_hh_data(self):
        # the group's evening peak is three hours later than the system's:
        # spreading daily energy with the system shape must forecast worse
        rng = np.random.default_rng(14)
        sys_panel = synthetic_panel(rng, n_meters=30)
        group = synthetic_panel(rng, n_meters=12, evening_shift=6.0)
        dlc_sys = compute_dlc(sys_panel)
        ehh = forecast_scheme(SettlementScheme.hhs_ehh(), group, dlc_sys, FAST, seed=7)
        dlc = forecast_scheme(SettlementScheme.hhs_dlc_sys(), group, dlc_sys, FAST, seed=7)
        assert ehh.wape_backtest.value < dlc.wape_backtest.value

    def test_forecast_covers_next_day(self):
        rng = np.random.default_rng(15)
        panel = synthetic_panel(rng)
        out = forecast_scheme(
            SettlementScheme.hhs_ehh(), panel, compute_dlc(panel), FAST, seed=8
        )
        assert len(out.forecast) == 48
        assert out.forecast.start == panel.start + panel.n_periods

    def test_stack_of_pipelines_fails_per_request(self):
        rng = np.random.default_rng(17)
        panel = synthetic_panel(rng)
        dlc = compute_dlc(panel)
        schemes = (SettlementScheme.hhs_ehh(), SettlementScheme.hhs_dlc_sys())
        requests = [forecast_request(s, panel, dlc, FAST, seed=10) for s in schemes]
        # a truth that sums to zero leaves the backtest unscorable
        zero = LoadSeries("zero", panel.start, np.zeros(panel.n_periods))
        results = forecast_schemes([*requests, replace(requests[0], truth=zero)])
        with pytest.raises(ValueError, match="actuals sum to zero"):
            raise results[2]
        for scheme, result in zip(schemes, results):
            alone = forecast_scheme(scheme, panel, dlc, FAST, seed=10)
            np.testing.assert_array_equal(result.forecast.values, alone.forecast.values)
            assert result.wape_backtest == alone.wape_backtest
            TestTrainingParity.assert_same(result.model, alone.model)

    def test_short_panel_rejected(self):
        rng = np.random.default_rng(16)
        panel = synthetic_panel(rng, n_weeks=3)
        with pytest.raises(ValueError, match="too short"):
            forecast_scheme(
                SettlementScheme.hhs_ehh(), panel, compute_dlc(panel), FAST, seed=9
            )
