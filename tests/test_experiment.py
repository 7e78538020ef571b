"""Experiment orchestration: cells, heterogeneity, reports, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from dpmeter.experiment import (
    ExperimentConfig,
    MarketConfig,
    SchemeResult,
    config_from_json,
    config_to_json,
    load_panel,
    make_market,
    read_results_csv,
    report,
    run_experiment,
    select_group,
    wape_cost_elasticity,
    write_results_csv,
)
from dpmeter.forecast import TrainConfig
from dpmeter.milp import simplex
from dpmeter.privacy import PrivacyParams
from dpmeter.synth import SynthConfig

FAST_CFG = ExperimentConfig(
    synth=SynthConfig(n_meters=40, n_weeks=6, seed=3),
    schemes=("hhs-ehh",),
    epsilon_grid=(1e12,),
    gamma_grid=(0.0,),
    n_scenarios=5,
    seeds=(0,),
    train=TrainConfig(epochs=30),
    group_kind="whole",
)


def clone(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    return ExperimentConfig(**{**cfg.__dict__, **overrides})


class TestConfig:
    def test_empty_schemes_rejected(self):
        with pytest.raises(ValueError):
            clone(FAST_CFG, schemes=())

    def test_json_round_trip(self):
        text = config_to_json(FAST_CFG)
        back = config_from_json(text)
        assert back == FAST_CFG

    def test_ddp_needs_grids(self):
        with pytest.raises(ValueError):
            clone(FAST_CFG, schemes=("hhs-ddp",), epsilon_grid=())
        with pytest.raises(ValueError, match="epsilon and gamma grids"):
            clone(FAST_CFG, hetero_p=(0.5,), gamma_grid=())

    @pytest.mark.parametrize("bad", [1.5, -0.25, float("nan")])
    def test_hetero_fraction_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=r"fractions must lie in \[0, 1\]"):
            clone(FAST_CFG, hetero_p=(0.5, bad))
        doc = json.loads(config_to_json(FAST_CFG))
        doc["hetero_p"] = [0.5, bad]
        with pytest.raises(ValueError, match=r"fractions must lie in \[0, 1\]"):
            config_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "fields",
        [
            {"group_kind": "bogus"},
            {"group_kind": "kmeans", "group_index": 7},
            {"group_kind": "kmeans", "group_index": -5},
            {"group_kind": "kmeans", "group_k": 0, "group_index": 0},
        ],
    )
    def test_group_outside_its_kind_rejected(self, fields):
        with pytest.raises(ValueError, match="group"):
            clone(FAST_CFG, **fields)

    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("alpha", 1.0, r"alpha must lie in \(0, 1\)"),
            ("alpha", 0.0, r"alpha must lie in \(0, 1\)"),
            ("alpha", float("nan"), r"alpha must lie in \(0, 1\)"),
            ("beta", -0.5, "beta must be finite and >= 0"),
            ("beta", float("nan"), "beta must be finite and >= 0"),
            ("solver_tol", -1e-6, "solver_tol must be finite and >= 0"),
            ("solver_tol", float("nan"), "solver_tol must be finite and >= 0"),
            ("solver_tol", float("inf"), "solver_tol must be finite and >= 0"),
        ],
    )
    def test_risk_and_tolerance_rejected(self, field, value, reason):
        with pytest.raises(ValueError, match=reason):
            clone(FAST_CFG, **{field: value})
        doc = json.loads(config_to_json(FAST_CFG))
        doc[field] = value
        with pytest.raises(ValueError, match=reason):
            config_from_json(json.dumps(doc))

    def test_group_index_checked_for_kmeans_only(self):
        assert clone(FAST_CFG, group_index=7).group_index == 7  # a whole-panel config
        assert clone(FAST_CFG, group_kind="share", group_index=-5).group_index == -5
        assert clone(FAST_CFG, group_kind="kmeans", group_k=8, group_index=7).group_k == 8


class TestMarket:
    def test_shapes_and_coverage(self):
        rng = np.random.default_rng(0)
        ref = rng.uniform(5, 20, 48)
        market = make_market(ref, 7, MarketConfig(), seed=1)
        da, bals, exo, lo, hi = market
        assert len(bals) == 7
        assert exo.d_imb_base.shape == (7, 48)
        assert np.all(lo < hi)
        # day-ahead hull covers every reachable system demand
        assert da.lo <= (exo.d_sys_base + lo).min()
        assert da.hi >= (exo.d_sys_base + hi).max()

    def test_balancing_prices_increasing(self):
        market = make_market(np.full(12, 10.0), 3, MarketConfig(), seed=2)
        for curve in market[1]:
            assert np.all(np.diff(curve.prices) >= 0)

    def test_deterministic(self):
        ref = np.full(12, 8.0)
        a = make_market(ref, 4, MarketConfig(), seed=3)
        b = make_market(ref, 4, MarketConfig(), seed=3)
        np.testing.assert_array_equal(a[0].prices, b[0].prices)
        np.testing.assert_array_equal(a[2].d_imb_base, b[2].d_imb_base)

    def test_ladder_paths_override_synthetic_curves(self, tmp_path):
        da_path = tmp_path / "da.csv"
        da_path.write_text("volume_mwh,price\n200,40\n200,70\n")
        bal_path = tmp_path / "bal.csv"
        bal_path.write_text("volume_mwh,price\n150,20\n150,95\n")
        mcfg = MarketConfig(
            da_ladder_csv=str(da_path),
            bal_ladder_csv=str(bal_path),
            ladder_delta=50.0,
            bal_ladder_origin=-150.0,
        )
        da, bals, exo, lo, hi = make_market(np.full(12, 10.0), 3, mcfg, seed=4)
        assert da.n_levels == 8
        assert da.prices[0] == 40.0 and da.prices[-1] == 70.0
        # balancing grid shifted into negative (surplus) territory
        assert bals[0].demand_levels[0] < 0 < bals[0].demand_levels[-1]

    def test_ladder_requires_delta(self):
        with pytest.raises(ValueError, match="ladder_delta"):
            MarketConfig(da_ladder_csv="x.csv")


class TestRunExperiment:
    def test_single_scheme_row_matches_backtest_wape(self):
        results, failures = run_experiment(FAST_CFG)
        assert not failures
        assert len(results) == 1
        row = results[0]
        assert row.scheme == "hhs-ehh" and row.group == "whole"
        from dpmeter.domain import SettlementScheme, compute_dlc
        from dpmeter.experiment import _cell_seeds
        from dpmeter.forecast import forecast_scheme

        panel = load_panel(FAST_CFG)
        fc = forecast_scheme(
            SettlementScheme.hhs_ehh(),
            panel,
            compute_dlc(panel),
            FAST_CFG.train,
            _cell_seeds(0)[0],
        )
        assert row.wape == pytest.approx(fc.wape_backtest.value, abs=1e-12)

    def test_huge_epsilon_ddp_matches_ehh_cost(self):
        cfg = clone(FAST_CFG, schemes=("hhs-ehh", "hhs-ddp"))
        results, failures = run_experiment(cfg)
        assert not failures
        by_scheme = {r.scheme: r for r in results}
        assert by_scheme["hhs-ddp"].expected_cost == pytest.approx(
            by_scheme["hhs-ehh"].expected_cost, abs=1e-6
        )

    def test_identical_cells_identical_rows(self):
        a, _ = run_experiment(FAST_CFG)
        b, _ = run_experiment(FAST_CFG)
        assert a == b

    def test_train_seed_has_no_effect(self):
        # every scheme pipeline draws its training seed from the cell seed
        cfg = clone(FAST_CFG, schemes=("nhhs", "hhs-dlcsys", "hhs-ehh", "hhs-ddp"))
        a, failures = run_experiment(cfg)
        assert len(a) == 4 and not failures
        b, _ = run_experiment(clone(cfg, train=TrainConfig(epochs=30, seed=12345)))
        assert cfg.train.seed != 12345 and a == b

    def test_one_failed_pipeline_leaves_the_other(self):
        # five weeks leave the daily pipeline 14 training days, below its
        # floor of 21, and the half-hourly one 864 rows
        cfg = clone(
            FAST_CFG,
            schemes=("nhhs", "hhs-ehh"),
            synth=SynthConfig(n_meters=40, n_weeks=5, seed=3),
        )
        results, failures = run_experiment(cfg)
        assert failures == ["nhhs(eps=None,gamma=None,seed=0): need at least 21 samples, got 14"]
        alone, alone_failures = run_experiment(clone(cfg, schemes=("hhs-ehh",)))
        assert not alone_failures
        assert results == alone

    def test_failed_cell_isolated(self):
        # an absurd group share makes forecasting impossible for one scheme
        cfg = clone(
            FAST_CFG,
            schemes=("hhs-ehh",),
            synth=SynthConfig(n_meters=30, n_weeks=5, seed=1),
            train=TrainConfig(epochs=10, min_samples=10**9),
        )
        results, failures = run_experiment(cfg)
        assert failures and not results


    def test_solver_limit_fails_its_cell(self, monkeypatch):
        # a procurement solve stopped at the simplex's iteration cap is the
        # cell's failure, named by its status
        monkeypatch.setattr(simplex, "_ITER_CAP_BASE", -1)
        monkeypatch.setattr(simplex, "_ITER_CAP_PER_DIM", 0)
        results, failures = run_experiment(FAST_CFG)
        assert not results
        assert len(failures) == 1 and failures[0].endswith(": procurement iteration_limit")


class TestHeterogeneity:
    def hetero_cfg(self):
        return clone(
            FAST_CFG,
            schemes=("hhs-ehh",),
            hetero_p=(0.0, 0.5, 1.0),
            epsilon_grid=(0.5,),
            gamma_grid=(0.5,),
        )

    def test_endpoints_bit_exact(self):
        cfg = self.hetero_cfg()
        results, failures = run_experiment(cfg)
        assert not failures
        plain = [r for r in results if r.scheme == "hhs-ehh"][0]
        h = {r.p: r for r in results if r.scheme == "hetero"}
        assert h[0.0].wape == plain.wape  # bit-exact reuse of the pipeline
        assert h[0.0].expected_cost == plain.expected_cost
        # p = 1 equals a plain full-DDP run under the same seed; the sweep
        # runs that endpoint itself and reports no hhs-ddp row for it
        assert {r.scheme for r in results} == {"hhs-ehh", "hetero"}
        ddp_cfg = clone(cfg, schemes=("hhs-ddp",), hetero_p=())
        ddp_row = run_experiment(ddp_cfg)[0][0]
        assert h[1.0].wape == ddp_row.wape
        assert h[1.0].expected_cost == ddp_row.expected_cost

    def test_context_and_endpoints_built_once(self, monkeypatch):
        import dpmeter.experiment as experiment

        calls = {}
        for name in ("load_panel", "select_group", "make_market", "forecast_schemes", "solve"):
            original = getattr(experiment, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                if _name == "forecast_schemes":
                    calls["requests"] = calls.get("requests", 0) + len(args[0])
                return _original(*args, **kwargs)

            monkeypatch.setattr(experiment, name, counted)
        cfg = clone(FAST_CFG, schemes=("hhs-ehh", "hhs-ddp"), hetero_p=(0.0, 0.5, 1.0))
        results, failures = run_experiment(cfg)
        assert not failures
        assert len(results) == 5
        # 2 scheme cells plus the p = 0.5 split (2 forecasts, 1 solve); the
        # p = 0 and p = 1 rows are the hhs-ehh and hhs-ddp cells.  The seed's
        # 4 forecasts train as one stack.
        assert calls == {
            "load_panel": 1,
            "select_group": 1,
            "make_market": 1,
            "forecast_schemes": 1,
            "requests": 4,
            "solve": 3,
        }

    def test_one_stack_per_seed(self, monkeypatch):
        import dpmeter.experiment as experiment

        stacks = []
        original = experiment.forecast_schemes

        def counted(requests):
            stacks.append(len(requests))
            return original(requests)

        monkeypatch.setattr(experiment, "forecast_schemes", counted)
        cfg = clone(
            FAST_CFG, schemes=("nhhs", "hhs-dlcsys", "hhs-ehh"), hetero_p=(0.5,), seeds=(0, 1)
        )
        results, failures = run_experiment(cfg)
        assert not failures
        assert len(results) == 8
        # per seed: one daily forecast shared by nhhs and hhs-dlcsys, hhs-ehh,
        # the hhs-ddp endpoint and the p = 0.5 split's two forecasts
        assert stacks == [5, 5]

    def test_midpoint_reports_both_costs(self):
        results, failures = run_experiment(self.hetero_cfg())
        assert not failures
        mid = [r for r in results if r.scheme == "hetero" and r.p == 0.5][0]
        assert mid.omega_exp is not None and np.isfinite(mid.omega_exp)


class TestReport:
    def run_rows(self, **overrides):
        cfg = clone(FAST_CFG, schemes=("hhs-ehh", "hhs-dlcsys"), **overrides)
        results, failures = run_experiment(cfg)
        assert not failures
        return cfg, results

    def test_files_written_with_schema(self, tmp_path):
        cfg, results = self.run_rows()
        written = report(results, tmp_path, cfg)
        assert set(written) == {
            "results.csv",
            "kld_wape.csv",
            "scheme_wape.csv",
            "costs.csv",
            "hetero.csv",
            "metadata.json",
        }
        costs = (tmp_path / "costs.csv").read_text().strip().splitlines()
        assert costs[0].split(",")[:4] == ["scheme", "epsilon", "gamma", "seed"]
        assert len(costs) == 1 + len(results)
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["tool_version"] and meta["config_sha256"]
        assert meta["kld_log_base"] == "e"

    def test_byte_identical_rerun(self, tmp_path):
        cfg, results = self.run_rows(hetero_p=(0.5,))
        assert [r.p for r in results if r.scheme == "hetero"] == [0.5]
        report(results, tmp_path / "a", cfg)
        cfg2, results2 = self.run_rows(hetero_p=(0.5,))
        report(results2, tmp_path / "b", cfg2)
        for name in ("results.csv", "costs.csv", "kld_wape.csv", "hetero.csv", "metadata.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_empty_results_rejected_before_writing(self, tmp_path):
        target = tmp_path / "empty"
        with pytest.raises(ValueError):
            report([], target, FAST_CFG)
        assert not target.exists() or not list(target.iterdir())

    def test_results_csv_round_trip(self, tmp_path):
        cfg, results = self.run_rows()
        path = tmp_path / "results.csv"
        write_results_csv(results, path)
        back = read_results_csv(path)
        assert back == results

    def test_results_csv_without_rows_or_columns_rejected(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results_csv([], path)
        with pytest.raises(ValueError, match="contains no rows"):
            read_results_csv(path)
        path.write_text("scheme,group,seed\nnhhs,g,0\n")
        with pytest.raises(ValueError, match="lacks columns"):
            read_results_csv(path)


def test_elasticity_slope_sign_free():
    rows = [
        SchemeResult("a", "g", None, None, None, 0, 1.0, 0.10, 100.0, 120.0, 100.0),
        SchemeResult("b", "g", None, None, None, 0, 1.0, 0.20, 90.0, 130.0, 90.0),
    ]
    slope = wape_cost_elasticity(rows)
    assert slope == pytest.approx(-0.1, abs=1e-12)  # -10% cost per +100% wape
