"""Experiment orchestration: cells, heterogeneity, reports, determinism."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from dpmeter.domain import write_meter_csv
from dpmeter.experiment import (
    CellOutcome,
    ExperimentConfig,
    ExperimentContext,
    MarketConfig,
    SchemeResult,
    config_from_json,
    config_to_json,
    heterogeneity_sweep,
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
from dpmeter.synth import SynthConfig, generate_panel

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
        # every (epsilon, gamma) pair is checked when the config is built
        with pytest.raises(ValueError, match="epsilon must be > 0"):
            clone(FAST_CFG, hetero_p=(0.5,), epsilon_grid=(0.0,))
        with pytest.raises(ValueError, match=r"gamma must lie in \[0, 1\)"):
            clone(FAST_CFG, schemes=("hhs-ddp",), gamma_grid=(0.0, 1.0))

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
            {"group_kind": "share", "group_share": 0.0},
            {"group_kind": "share", "group_share": 1.5},
            {"group_kind": "share", "group_share": float("nan")},
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
        assert clone(FAST_CFG, group_share=0.0).group_share == 0.0  # not a share config


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

    @pytest.mark.parametrize(
        "field",
        ["da_price_lo", "da_price_hi", "bal_premium", "bal_spread", "imb_sigma_rel",
         "bound_mult", "pad_mult", "bal_pad_mult", "bal_ladder_origin"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            MarketConfig(**{field: value})


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
        solves = []
        original_stack, original_solve = experiment.forecast_schemes, experiment.solve

        def counted(requests):
            stacks.append(len(requests))
            return original_stack(requests)

        def counted_solve(*args, **kwargs):
            solves.append(1)
            return original_solve(*args, **kwargs)

        monkeypatch.setattr(experiment, "forecast_schemes", counted)
        monkeypatch.setattr(experiment, "solve", counted_solve)
        cfg = clone(
            FAST_CFG, schemes=("nhhs", "hhs-dlcsys", "hhs-ehh"), hetero_p=(0.5,), seeds=(0, 1)
        )
        results, failures = run_experiment(cfg)
        assert not failures
        assert len(results) == 8
        # per seed: one daily forecast shared by nhhs and hhs-dlcsys, hhs-ehh,
        # the hhs-ddp endpoint and the p = 0.5 split's two forecasts
        assert stacks == [5, 5]
        # each distinct forecast is solved once: 4 per seed
        assert len(solves) == 8
        for seed in cfg.seeds:
            nhhs, dlcsys = (
                [r for r in results if r.scheme == name and r.seed == seed][0]
                for name in ("nhhs", "hhs-dlcsys")
            )
            assert dataclasses.replace(nhhs, scheme="hhs-dlcsys") == dlcsys

    def test_sweep_only_reads_its_table(self, monkeypatch):
        import dpmeter.experiment as experiment

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep solved or forecast")

        monkeypatch.setattr(experiment, "solve", refuse)
        monkeypatch.setattr(experiment, "forecast_schemes", refuse)
        cfg = clone(self.hetero_cfg(), seeds=(4,))
        panel = load_panel(cfg)
        assert panel.n_meters == 40
        ctx = ExperimentContext(None, panel, "whole", 0.0, ())
        ehh, ddp, split = (
            CellOutcome(0.1, 100.0, 120.0, 160.0),
            CellOutcome(0.3, 140.0, 170.0, 225.0),
            CellOutcome(0.2, 115.0, 140.0, 185.0),
        )
        table = {
            (4, ("hhs-ehh", None, None, None)): ehh,
            (4, ("hhs-ddp", 0.5, 0.5, None)): ddp,
            (4, ("hhs-ddp", 0.5, 0.5, 20)): split,  # p = 0.5 of 40 meters
        }
        before = dict(table)
        results, failures = heterogeneity_sweep(ctx, cfg, table)
        assert not failures and table == before
        assert [(r.p, r.seed) for r in results] == [(0.0, 4), (0.5, 4), (1.0, 4)]
        for row, out in zip(results, (ehh, split, ddp)):
            assert (row.wape, row.expected_cost, row.cvar, row.objective) == tuple(vars(out).values())
            assert (row.scheme, row.epsilon, row.gamma) == ("hetero", 0.5, 0.5)
        assert [r.omega_exp for r in results] == [100.0, 120.0, 140.0]

    def test_failed_endpoint_fails_its_seed(self, monkeypatch):
        import dpmeter.experiment as experiment

        original = experiment._forecast_phase

        def phase(ctx, cfg, seed, keys):
            out = original(ctx, cfg, seed, keys)
            if seed == 1:
                out[("hhs-ddp", 0.5, 0.5, None)] = RuntimeError("no ddp forecast")
            return out

        monkeypatch.setattr(experiment, "_forecast_phase", phase)
        cfg = clone(self.hetero_cfg(), schemes=("hhs-ehh", "hhs-ddp"), seeds=(0, 1))
        results, failures = run_experiment(cfg)
        # a failed forecast fails every row that reads it
        assert failures == [
            "hhs-ddp(eps=0.5,gamma=0.5,seed=1): no ddp forecast",
            "hetero endpoint p=1.0 seed=1: no ddp forecast",
        ]
        assert {(r.scheme, r.seed) for r in results if r.scheme != "hetero"} == {
            ("hhs-ehh", 0), ("hhs-ehh", 1), ("hhs-ddp", 0)
        }
        assert [(r.p, r.seed) for r in results if r.scheme == "hetero"] == [
            (0.0, 0), (0.5, 0), (1.0, 0)
        ]

    def test_midpoint_reports_both_costs(self):
        results, failures = run_experiment(self.hetero_cfg())
        assert not failures
        mid = [r for r in results if r.scheme == "hetero" and r.p == 0.5][0]
        assert mid.omega_exp is not None and np.isfinite(mid.omega_exp)


class TestFailurePaths:
    """Each way a cell can fail inside one seed's forecast phase or at its
    row fails that cell alone: one failure line names it, it has no row,
    and every other row equals the row of a clean run."""

    CFG = clone(FAST_CFG, schemes=("hhs-ehh", "hhs-ddp"), seeds=(0, 1))
    HETERO_CFG = clone(
        FAST_CFG, hetero_p=(0.5,), epsilon_grid=(0.5,), gamma_grid=(0.5,), seeds=(0, 1)
    )
    DDP_KEY = ("hhs-ddp", 1e12, 0.0, None)

    @staticmethod
    def clean(cfg):
        results, failures = run_experiment(cfg)
        assert not failures
        return results

    def test_request_that_cannot_be_built(self, monkeypatch):
        import dpmeter.experiment as experiment

        original = experiment.forecast_request

        def request(scheme, panel, dlc, train, seed):
            if scheme.kind == "hhs-ddp" and seed == 1:
                raise RuntimeError("no request")
            return original(scheme, panel, dlc, train, seed)

        clean = self.clean(self.CFG)
        monkeypatch.setattr(experiment, "forecast_request", request)
        results, failures = run_experiment(self.CFG)
        assert failures == [f"hhs-ddp(eps={1e12},gamma=0.0,seed=1): no request"]
        assert results == [r for r in clean if (r.scheme, r.seed) != ("hhs-ddp", 1)]

    def test_failed_stack_fails_its_cells(self, monkeypatch):
        import dpmeter.experiment as experiment

        original, stacks = experiment.forecast_schemes, []

        def forecast_schemes(requests):
            stacks.append(len(requests))
            if len(stacks) == 2:  # seed 1's stack
                raise RuntimeError("stack down")
            return original(requests)

        clean = self.clean(self.CFG)
        monkeypatch.setattr(experiment, "forecast_schemes", forecast_schemes)
        results, failures = run_experiment(self.CFG)
        assert stacks == [2, 2]
        assert failures == [
            "hhs-ehh(eps=None,gamma=None,seed=1): stack down",
            f"hhs-ddp(eps={1e12},gamma=0.0,seed=1): stack down",
        ]
        assert results == [r for r in clean if r.seed == 0]

    def test_failed_sum_of_a_split(self, monkeypatch):
        import dpmeter.experiment as experiment

        original, sums = experiment._summed, []

        def summed(*args):
            sums.append(1)
            if len(sums) == 2:  # seed 1's split
                raise RuntimeError("no sum")
            return original(*args)

        clean = self.clean(self.HETERO_CFG)
        monkeypatch.setattr(experiment, "_summed", summed)
        results, failures = run_experiment(self.HETERO_CFG)
        assert len(sums) == 2
        assert failures == ["hetero p=0.5 seed=1: no sum"]
        assert results == [r for r in clean if (r.scheme, r.seed) != ("hetero", 1)]

    def test_row_that_is_not_finite(self, monkeypatch):
        import dpmeter.experiment as experiment

        original_phase, original_cell, targets = experiment._forecast_phase, experiment.run_cell, []

        def phase(ctx, cfg, seed, keys):
            out = original_phase(ctx, cfg, seed, keys)
            if seed == 1:
                targets.append(out[self.DDP_KEY])
            return out

        def run_cell(forecast, seed, ctx, cfg):
            out = original_cell(forecast, seed, ctx, cfg)
            if any(forecast is t for t in targets):
                out = dataclasses.replace(out, expected_cost=float("nan"))
            return out

        clean = self.clean(self.CFG)
        monkeypatch.setattr(experiment, "_forecast_phase", phase)
        monkeypatch.setattr(experiment, "run_cell", run_cell)
        results, failures = run_experiment(self.CFG)
        assert len(targets) == 1
        assert failures == [f"hhs-ddp(eps={1e12},gamma=0.0,seed=1): expected_cost must be finite"]
        assert results == [r for r in clean if (r.scheme, r.seed) != ("hhs-ddp", 1)]


def counting(monkeypatch, names):
    """Patch each named ``dpmeter.experiment`` function to count its calls
    into the returned dict, then call through."""
    import dpmeter.experiment as experiment

    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(experiment, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(experiment, name, counted)
    return calls


class TestGroupMemo:
    """run_experiment builds a panel's system profile and group once per
    process and reuses them in every later call on that panel and group."""

    BUILDERS = ("load_panel", "compute_dlc", "select_group")
    REPORT_FILES = (
        "results.csv", "kld_wape.csv", "scheme_wape.csv", "costs.csv", "hetero.csv",
        "metadata.json",
    )

    def test_cold_and_warm_reports_byte_identical(self, tmp_path):
        # the reference config of acceptance criterion 13: a cold run, a
        # warm run and a cold run after clearing write the same six files
        import dpmeter.experiment as experiment

        cfg = ExperimentConfig(
            synth=SynthConfig(n_meters=200, n_weeks=8, seed=0),
            schemes=("nhhs", "hhs-dlcsys", "hhs-ehh", "hhs-ddp"),
            epsilon_grid=(0.25,),
            gamma_grid=(0.75,),
            n_scenarios=20,
            seeds=(0,),
            train=TrainConfig(epochs=80),
            group_kind="kmeans",
            group_k=4,
            group_index=3,
        )
        for run_dir in ("cold", "warm", "cleared"):
            if run_dir == "cleared":
                experiment._built_group.cache_clear()
            results, failures = run_experiment(cfg)
            assert not failures
            report(results, tmp_path / run_dir, cfg)
            assert experiment._built_group.cache_info().hits == (run_dir == "warm")
        for name in self.REPORT_FILES:
            cold = (tmp_path / "cold" / name).read_bytes()
            assert (tmp_path / "warm" / name).read_bytes() == cold, name
            assert (tmp_path / "cleared" / name).read_bytes() == cold, name

    def test_other_seeds_and_risk_reuse_the_group(self, monkeypatch):
        calls = counting(monkeypatch, self.BUILDERS)
        first, _ = run_experiment(FAST_CFG)
        assert calls == {"load_panel": 1, "compute_dlc": 1, "select_group": 1}
        for overrides in ({"seeds": (1, 2)}, {"beta": 2.0}, {"n_scenarios": 3}):
            results, failures = run_experiment(clone(FAST_CFG, **overrides))
            assert results and not failures
        assert calls == {"load_panel": 1, "compute_dlc": 1, "select_group": 1}
        assert run_experiment(FAST_CFG)[0] == first

    def test_other_grouping_or_panel_builds_again(self, monkeypatch):
        calls = counting(monkeypatch, self.BUILDERS)
        run_experiment(FAST_CFG)
        run_experiment(clone(FAST_CFG, group_kind="share", group_share=0.5))
        run_experiment(clone(FAST_CFG, synth=SynthConfig(n_meters=40, n_weeks=6, seed=4)))
        assert calls == {"load_panel": 3, "compute_dlc": 3, "select_group": 3}

    def test_cached_values_are_read_only(self):
        import dpmeter.experiment as experiment

        run_experiment(FAST_CFG)
        dlc_sys, group_panel, _, _ = experiment._built_group(experiment._group_source(FAST_CFG))
        for arr in (dlc_sys.mu, dlc_sys.sigma, group_panel.meters[0].values):
            assert not arr.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            group_panel.meters = ()

    def test_rewritten_input_csv_is_read_again(self, tmp_path, monkeypatch):
        import dpmeter.experiment as experiment

        path = tmp_path / "meters.csv"
        cfg = clone(FAST_CFG, input_csv=str(path))
        write_meter_csv(generate_panel(SynthConfig(n_meters=40, n_weeks=6, seed=3)), path)
        calls = counting(monkeypatch, self.BUILDERS)
        before, _ = run_experiment(cfg)
        assert run_experiment(cfg)[0] == before and calls["load_panel"] == 1
        # another panel, of another size, in the same file
        write_meter_csv(generate_panel(SynthConfig(n_meters=30, n_weeks=6, seed=5)), path)
        after, failures = run_experiment(cfg)
        assert not failures and after != before and calls["load_panel"] == 2
        experiment._built_group.cache_clear()
        assert run_experiment(cfg)[0] == after

    def test_failed_build_not_kept(self, monkeypatch):
        import dpmeter.experiment as experiment

        original = experiment.load_panel
        attempts = []

        def flaky(cfg):
            attempts.append(cfg)
            if len(attempts) == 1:
                raise OSError("meter store unavailable")
            return original(cfg)

        monkeypatch.setattr(experiment, "load_panel", flaky)
        with pytest.raises(OSError, match="meter store unavailable"):
            run_experiment(FAST_CFG)
        results, failures = run_experiment(FAST_CFG)
        assert results and not failures and len(attempts) == 2
        run_experiment(FAST_CFG)
        assert len(attempts) == 2


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

    @pytest.mark.parametrize(
        "column, cell, reason",
        [("seed", "zero", "invalid literal for int"),
         ("kld", "", "could not convert string to float")],
        ids=["seed-not-a-number", "kld-empty"],
    )
    def test_results_csv_bad_cell_rejected(self, tmp_path, column, cell, reason):
        path = tmp_path / "results.csv"
        row = SchemeResult("hhs-ehh", "g", None, None, None, 0, 1.0, 0.1, 100.0, 120.0, 100.0)
        write_results_csv([row], path)
        header, first = path.read_text().splitlines()
        cells = first.split(",")
        cells[header.split(",").index(column)] = cell
        path.write_text(f"{header}\n{','.join(cells)}\n")
        with pytest.raises(ValueError, match=reason):
            read_results_csv(path)


def test_elasticity_slope_sign_free():
    rows = [
        SchemeResult("a", "g", None, None, None, 0, 1.0, 0.10, 100.0, 120.0, 100.0),
        SchemeResult("b", "g", None, None, None, 0, 1.0, 0.20, 90.0, 130.0, 90.0),
    ]
    slope = wape_cost_elasticity(rows)
    assert slope == pytest.approx(-0.1, abs=1e-12)  # -10% cost per +100% wape
