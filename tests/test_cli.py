"""CLI subcommands drive the same pipelines through files."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

import dpmeter.experiment as experiment
from dpmeter.cli import main
from dpmeter.domain import PERIODS_PER_DAY, read_csv
from dpmeter.experiment import RESULT_COLUMNS, ExperimentConfig, MarketConfig, config_to_json
from dpmeter.forecast import TrainConfig
from dpmeter.market import SystemExogenous
from dpmeter.procurement import ProcurementInstance, write_instance
from dpmeter.scenario import ErrorScenarioSet
from dpmeter.synth import SynthConfig

from helpers import empty_range_instance, uniform_curve


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def meters_csv(tmp_path):
    out = tmp_path / "synth"
    assert run(["synth", "--meters", 15, "--weeks", 5, "--seed", 1, "--out", out]) == 0
    return out / "meters.csv"


class TestSynthCommand:
    def test_writes_meters_and_groups(self, tmp_path):
        out = tmp_path / "s"
        code = run(
            ["synth", "--meters", 12, "--weeks", 4, "--seed", 2, "--kmeans", 2, "--out", out]
        )
        assert code == 0
        assert (out / "meters.csv").exists()
        groups = (out / "groups.csv").read_text().strip().splitlines()
        assert groups[0] == "meter_id,group"
        assert len(groups) == 13


class TestPrivatizeCommand:
    def test_output_schema(self, meters_csv, tmp_path):
        out = tmp_path / "p"
        code = run(
            ["privatize", "--input", meters_csv, "--epsilon", 0.25, "--gamma", 0.75,
             "--seed", 3, "--out", out]
        )
        assert code == 0
        rows = list(csv.DictReader(open(out / "aggregate_noisy.csv")))
        assert set(rows[0]) == {"period_index", "kwh_noisy"}
        assert len(rows) == 5 * 336

    def test_deterministic(self, meters_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["privatize", "--input", meters_csv, "--epsilon", 1.0, "--seed", 9, "--out", out])
        assert (a / "aggregate_noisy.csv").read_bytes() == (b / "aggregate_noisy.csv").read_bytes()


class TestForecastAndScenarios:
    def test_forecast_then_scenarios(self, meters_csv, tmp_path):
        out = tmp_path / "f"
        code = run(
            ["forecast", "--input", meters_csv, "--scheme", "hhs-ehh", "--epochs", 20,
             "--seed", 4, "--out", out]
        )
        assert code == 0
        rows = list(csv.DictReader(open(out / "forecast.csv")))
        assert len(rows) == 48
        sout = tmp_path / "sc"
        code = run(
            ["scenarios", "--forecast", out / "forecast.csv", "--wape", 0.1,
             "--count", 9, "--seed", 5, "--out", sout]
        )
        assert code == 0
        srows = list(csv.DictReader(open(sout / "scenarios.csv")))
        assert len(srows) == 9 * 48


def one_period_instance() -> ProcurementInstance:
    scen = ErrorScenarioSet(np.array([[0.5], [-0.5]]), np.array([0.5, 0.5]))
    return ProcurementInstance(
        d_fore=np.array([10.0]),
        scenarios=scen,
        da_curve=uniform_curve(40.0, 80.0, 2, [45.0, 55.0]),
        bal_curves=(
            uniform_curve(-25.0, 25.0, 2, [30.0, 90.0]),
            uniform_curve(-25.0, 25.0, 2, [32.0, 92.0]),
        ),
        exogenous=SystemExogenous(np.array([50.0]), np.zeros((2, 1))),
        beta=0.5,
        alpha=0.9,
        d_da_lower=np.array([-5.0]),
        d_da_upper=np.array([15.0]),
    )


class TestProcureCommand:
    def test_solves_instance_file(self, tmp_path):
        path = tmp_path / "inst.json"
        write_instance(one_period_instance(), path)
        out = tmp_path / "sol"
        assert run(["procure", "--instance", path, "--out", out]) == 0
        summary = list(csv.DictReader(open(out / "solution_summary.csv")))[0]
        assert float(summary["gap"]) <= 1e-6
        da = list(csv.DictReader(open(out / "solution_da.csv")))
        assert len(da) == 1
        bal = list(csv.DictReader(open(out / "solution_bal.csv")))
        assert len(bal) == 2


def one_cell_config(**fields) -> ExperimentConfig:
    """One quick hhs-ehh cell on a small synthetic panel."""
    return ExperimentConfig(
        synth=SynthConfig(n_meters=30, n_weeks=5, seed=7),
        schemes=("hhs-ehh",),
        epsilon_grid=(1.0,),
        gamma_grid=(0.0,),
        n_scenarios=4,
        seeds=(0,),
        train=TrainConfig(epochs=15),
        group_kind="whole",
        **fields,
    )


def write_config(tmp_path, cfg: ExperimentConfig):
    path = tmp_path / "cfg.json"
    path.write_text(config_to_json(cfg))
    return path


def ladder_market(path) -> MarketConfig:
    """The default market with its day-ahead curve read from ``path``."""
    return MarketConfig(da_ladder_csv=str(path), ladder_delta=5.0)


def assert_usage_error(capsys, args, text):
    """The command exits 2 with one ``dpmeter: error:`` line naming ``text``."""
    with pytest.raises(SystemExit) as exited:
        run(args)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("dpmeter: error: ") and err.count("\n") == 1, err
    assert text in err


class TestInputErrors:
    """An invalid input file is one error line and exit code 2, as argparse
    reports a usage error, not a traceback."""

    def bad_config(self, tmp_path):
        doc = json.loads(config_to_json(ExperimentConfig(epsilon_grid=(1.0,), gamma_grid=(0.0,))))
        doc["hetero_p"] = [0.5, 1.5]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return path

    def test_experiment_invalid_config(self, tmp_path, capsys):
        args = ["experiment", "--config", self.bad_config(tmp_path), "--out", tmp_path / "x"]
        assert_usage_error(capsys, args, "must lie in [0, 1]")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "field, value, reason",
        [("alpha", 1.0, "alpha must lie in (0, 1)"),
         ("beta", -0.5, "beta must be finite and >= 0"),
         ("solver_tol", float("nan"), "solver_tol must be finite and >= 0"),
         ("epsilon_grid", [-1.0], "epsilon must be > 0"),
         ("gamma_grid", [0.5, 1.0], "gamma must lie in [0, 1)")],
        ids=["alpha-1", "beta-negative", "tol-nan", "epsilon-negative", "gamma-1"],
    )
    def test_experiment_bad_risk_or_tolerance(self, tmp_path, capsys, monkeypatch, field, value,
                                              reason):
        def load_panel(cfg):
            raise AssertionError("the panel was built before the config was checked")

        monkeypatch.setattr(experiment, "load_panel", load_panel)
        doc = json.loads(config_to_json(ExperimentConfig()))
        doc[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        args = ["experiment", "--config", path, "--out", tmp_path / "x"]
        assert_usage_error(capsys, args, reason)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("group_index", 7), ("group_index", -5), ("group_kind", "bogus")],
        ids=["index-7", "index-minus-5", "kind-bogus"],
    )
    def test_experiment_group_outside_its_kind(self, tmp_path, capsys, monkeypatch, field, value):
        def load_panel(cfg):
            raise AssertionError("the panel was built before the config was checked")

        monkeypatch.setattr(experiment, "load_panel", load_panel)
        doc = json.loads(config_to_json(ExperimentConfig()))  # 4 kmeans groups
        doc[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        args = ["experiment", "--config", path, "--out", tmp_path / "x"]
        reason = "group_index must lie in [0, group_k)" if field == "group_index" else "bogus"
        assert_usage_error(capsys, args, reason)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "field, value, reason",
        [("learning_rate", float("nan"), "learning_rate must be finite"),
         ("early_stop_tol", float("inf"), "early_stop_tol must be finite"),
         ("epochs", 2.5, "epochs must be an integer, got 2.5"),
         ("batch_size", 8.5, "batch_size must be an integer, got 8.5"),
         ("min_samples", True, "min_samples must be an integer, got True")],
        ids=["lr-nan", "tol-inf", "epochs-2.5", "batch-8.5", "min-samples-true"],
    )
    def test_experiment_bad_train_config(self, tmp_path, capsys, monkeypatch, field, value,
                                         reason):
        def load_panel(cfg):
            raise AssertionError("the panel was built before the config was checked")

        monkeypatch.setattr(experiment, "load_panel", load_panel)
        doc = json.loads(config_to_json(ExperimentConfig()))
        doc["train"][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        args = ["experiment", "--config", path, "--out", tmp_path / "x"]
        assert_usage_error(capsys, args, reason)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "section, field, value, reason",
        [("synth", "noise_level", float("nan"), "noise_level must be finite"),
         ("synth", "weekend_shift_hours", float("inf"), "weekend_shift_hours must be finite"),
         ("synth", "base_level", float("-inf"), "base_level must be finite"),
         ("synth", "n_meters", 2.5, "n_meters must be an integer, got 2.5"),
         ("synth", "n_weeks", True, "n_weeks must be an integer, got True"),
         ("synth", "seed", -1, "seed must be >= 0"),
         ("market", "da_price_hi", float("nan"), "da_price_hi must be finite"),
         ("market", "bal_spread", float("inf"), "bal_spread must be finite"),
         ("market", "pad_mult", float("nan"), "pad_mult must be finite"),
         ("market", "bal_ladder_origin", float("-inf"), "bal_ladder_origin must be finite"),
         ("market", "n_levels_bal", 2.5, "n_levels_bal must be an integer, got 2.5"),
         ("market", "n_levels_da", True, "n_levels_da must be an integer, got True"),
         ("market", "n_levels_da", 2.5, "n_levels_da must be an integer, got 2.5"),
         (None, "seeds", [True], "seeds must be an integer, got True"),
         (None, "seeds", [1.5], "seeds must be an integer, got 1.5"),
         (None, "seeds", [-1], "seeds and group_seed must be >= 0"),
         (None, "group_seed", -1, "seeds and group_seed must be >= 0"),
         (None, "group_index", True, "group_index must be an integer, got True"),
         (None, "group_index", 1.0, "group_index must be an integer, got 1.0"),
         (None, "group_k", 2.0, "group_k must be an integer, got 2.0"),
         (None, "n_scenarios", 2.5, "n_scenarios must be an integer, got 2.5")],
        ids=["noise-nan", "weekend-inf", "base-minus-inf", "meters-2.5", "weeks-true",
             "seed-negative", "da-price-hi-nan", "bal-spread-inf", "pad-mult-nan",
             "origin-minus-inf", "levels-bal-2.5", "levels-da-true", "levels-da-2.5",
             "seeds-true", "seeds-1.5", "seeds-negative", "group-seed-negative",
             "group-index-true", "group-index-1.0", "group-k-2.0", "scenarios-2.5"],
    )
    def test_experiment_bad_synth_or_market(self, tmp_path, capsys, monkeypatch, section, field,
                                            value, reason):
        def load_panel(cfg):
            raise AssertionError("the panel was built before the config was checked")

        monkeypatch.setattr(experiment, "load_panel", load_panel)
        doc = json.loads(config_to_json(ExperimentConfig()))
        (doc[section] if section else doc)[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        args = ["experiment", "--config", path, "--out", tmp_path / "x"]
        assert_usage_error(capsys, args, reason)
        assert not (tmp_path / "x").exists()

    def test_report_invalid_config(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        results.write_text("")
        args = ["report", "--results", results, "--config", self.bad_config(tmp_path),
                "--out", tmp_path / "x"]
        assert_usage_error(capsys, args, "must lie in [0, 1]")

    def test_missing_config(self, tmp_path, capsys):
        args = ["experiment", "--config", tmp_path / "none.json", "--out", tmp_path / "x"]
        assert_usage_error(capsys, args, "none.json")

    def test_procure_uncovered_instance(self, tmp_path, capsys):
        scen = ErrorScenarioSet(np.zeros((1, 1)), np.ones(1))
        inst = ProcurementInstance(
            d_fore=np.array([10.0]),
            scenarios=scen,
            da_curve=uniform_curve(52.0, 80.0, 1, [50.0]),  # misses low demands
            bal_curves=(uniform_curve(-25.0, 25.0, 2, [30.0, 90.0]),),
            exogenous=SystemExogenous(np.array([50.0]), np.zeros((1, 1))),
            beta=0.5,
            alpha=0.9,
            d_da_lower=np.array([-5.0]),
            d_da_upper=np.array([15.0]),
        )
        path = tmp_path / "inst.json"
        write_instance(inst, path)
        args = ["procure", "--instance", path, "--out", tmp_path / "sol"]
        assert_usage_error(capsys, args, "day-ahead price grid does not cover period 0")

    @pytest.mark.parametrize(
        "where, value, reason",
        [(("beta",), float("inf"), "beta must be finite and >= 0"),
         (("d_fore", 0), float("nan"), "forecast must be finite"),
         (("errors", 1, 0), float("nan"), "scenario errors must be finite"),
         (("probs", 0), float("nan"), "scenario probabilities must be finite"),
         (("d_sys_base", 0), float("inf"), "d_sys_base must be finite"),
         (("d_imb_base", 0, 0), float("nan"), "d_imb_base must be finite"),
         (("da_curve", "prices", 1), float("nan"), "prices must be finite"),
         (("bal_curves", 1, "levels", 0), float("-inf"), "demand levels must be finite")],
        ids=["beta-inf", "forecast-nan", "error-nan", "prob-nan", "sys-inf", "imb-nan",
             "price-nan", "level-inf"],
    )
    def test_procure_non_finite_instance(self, tmp_path, capsys, where, value, reason):
        path = tmp_path / "inst.json"
        write_instance(one_period_instance(), path)
        doc = json.loads(path.read_text())
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        path.write_text(json.dumps(doc))
        args = ["procure", "--instance", path, "--out", tmp_path / "sol"]
        assert_usage_error(capsys, args, reason)
        assert not (tmp_path / "sol").exists()

    def test_procure_empty_volume_range(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        write_instance(empty_range_instance(), path)
        args = ["procure", "--instance", path, "--out", tmp_path / "sol"]
        assert_usage_error(capsys, args, "price grids leave no volume in period 1")

    def test_procure_instance_without_field(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        write_instance(one_period_instance(), path)
        doc = json.loads(path.read_text())
        del doc["beta"]
        path.write_text(json.dumps(doc))
        args = ["procure", "--instance", path, "--out", tmp_path / "sol"]
        assert_usage_error(capsys, args, "inst.json: instance JSON lacks field 'beta'")

    def test_procure_one_level_curve_without_delta(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        write_instance(one_period_instance(), path)
        doc = json.loads(path.read_text())
        doc["da_curve"] = {"levels": [50.0], "prices": [45.0]}
        path.write_text(json.dumps(doc))
        args = ["procure", "--instance", path, "--out", tmp_path / "sol"]
        assert_usage_error(capsys, args, "fewer than two levels needs field 'delta'")

    @pytest.mark.parametrize("field", ["input_csv", "market"], ids=["input_csv", "da_ladder_csv"])
    def test_experiment_missing_input_file(self, tmp_path, capsys, field):
        missing = str(tmp_path / "none.csv")
        value = missing if field == "input_csv" else ladder_market(missing)
        config = write_config(tmp_path, one_cell_config(**{field: value}))
        args = ["experiment", "--config", config, "--out", tmp_path / "x"]
        reason = f"{config}: [Errno 2] No such file or directory: {missing!r}"
        assert_usage_error(capsys, args, reason)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("delta", [0.0, -5.0])
    def test_experiment_bad_ladder_delta(self, tmp_path, capsys, delta):
        ladder = tmp_path / "ladder.csv"
        ladder.write_text("volume_mwh,price\n10,40\n")
        doc = json.loads(config_to_json(one_cell_config(market=ladder_market(ladder))))
        doc["market"]["ladder_delta"] = delta
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        args = ["experiment", "--config", path, "--out", tmp_path / "x"]
        assert_usage_error(capsys, args, "ladder_delta must be finite and > 0")
        assert not (tmp_path / "x").exists()

    def test_experiment_ladder_without_columns(self, tmp_path, capsys):
        ladder = tmp_path / "ladder.csv"
        ladder.write_text("mwh,eur\n10,40\n")
        config = write_config(tmp_path, one_cell_config(market=ladder_market(ladder)))
        args = ["experiment", "--config", config, "--out", tmp_path / "x"]
        assert_usage_error(
            capsys, args, "cfg.json: ladder CSV lacks columns ['volume_mwh', 'price']"
        )

    def test_privatize_missing_input(self, tmp_path, capsys):
        args = ["privatize", "--input", tmp_path / "none.csv", "--epsilon", 1.0,
                "--out", tmp_path / "x"]
        assert_usage_error(capsys, args, "none.csv")

    def test_forecast_malformed_input(self, tmp_path, capsys):
        path = tmp_path / "meters.csv"
        path.write_text("meter_id,kwh\nm0,1.0\n")
        args = ["forecast", "--input", path, "--scheme", "hhs-ehh", "--out", tmp_path / "x"]
        assert_usage_error(capsys, args, "meter CSV lacks columns ['period_index']")

    def test_forecast_panel_too_short_for_scheme(self, tmp_path, capsys):
        # four weeks give nhhs seven daily samples, fewer than it trains on
        out = tmp_path / "synth"
        assert run(["synth", "--meters", 5, "--weeks", 4, "--out", out]) == 0
        args = ["forecast", "--input", out / "meters.csv", "--scheme", "nhhs",
                "--out", tmp_path / "x"]
        assert_usage_error(capsys, args, "need at least 21 samples, got 7")

    def test_forecast_panel_under_two_weeks(self, tmp_path, capsys):
        out = tmp_path / "synth"
        assert run(["synth", "--meters", 5, "--weeks", 4, "--out", out]) == 0
        header, *rows = (out / "meters.csv").read_text().splitlines()
        first_20_days = [r for r in rows if int(r.split(",")[1]) < 20 * PERIODS_PER_DAY]
        path = tmp_path / "meters.csv"
        path.write_text("\n".join([header, *first_20_days]) + "\n")
        args = ["forecast", "--input", path, "--scheme", "hhs-ehh", "--out", tmp_path / "x"]
        assert_usage_error(capsys, args, "panel must span at least two whole weeks")

    @pytest.mark.parametrize(
        "text, reason",
        [("period_index,value\n0,1.0\n", "forecast CSV lacks columns ['kwh']"),
         ("period_index,kwh\n", "contains no rows"),
         ("period_index,kwh\n0,abc\n", "could not convert")],
        ids=["no kwh column", "no rows", "bad number"],
    )
    def test_scenarios_malformed_forecast(self, tmp_path, capsys, text, reason):
        path = tmp_path / "forecast.csv"
        path.write_text(text)
        args = ["scenarios", "--forecast", path, "--wape", 0.1, "--out", tmp_path / "x"]
        assert_usage_error(capsys, args, reason)

    @pytest.mark.parametrize(
        "header, reason",
        [(",".join(RESULT_COLUMNS), "contains no rows"),
         ("", "lacks columns"),
         (",".join(c for c in RESULT_COLUMNS if c != "cvar"), "lacks columns ['cvar']")],
        ids=["no rows", "empty file", "no cvar column"],
    )
    def test_report_unusable_results(self, tmp_path, capsys, header, reason):
        path = tmp_path / "results.csv"
        path.write_text(header + "\n" if header else "")
        args = ["report", "--results", path, "--out", tmp_path / "x"]
        assert_usage_error(capsys, args, reason)
        assert not (tmp_path / "x").exists()


class TestArgumentErrors:
    """An argument value that a validator rejects is one error line and exit
    code 2, not a traceback."""

    @pytest.mark.parametrize(
        "args, reason",
        [(["synth", "--meters", 0], "need at least one meter"),
         (["synth", "--meters", 3, "--weeks", 4, "--seed", -1], "seed must be >= 0"),
         (["synth", "--meters", 3, "--weeks", 4, "--kmeans", 5], "k=5 exceeds the 3 meters"),
         (["privatize", "--input", "{meters}", "--epsilon", 0], "epsilon must be > 0"),
         (["forecast", "--input", "{meters}", "--scheme", "hhs-ehh", "--epochs", 0],
          "epochs, and batch size must be positive"),
         (["forecast", "--input", "{meters}", "--scheme", "hhs-ddp", "--gamma", 1.0],
          "gamma must lie in [0, 1)"),
         (["scenarios", "--forecast", "{forecast}", "--wape", -0.1], "WAPE must be >= 0"),
         (["scenarios", "--forecast", "{forecast}", "--wape", 0.1, "--count", 0],
          "need at least one scenario")],
        ids=["synth meters", "synth seed", "synth kmeans", "privatize epsilon", "forecast epochs",
             "forecast gamma", "scenarios wape", "scenarios count"],
    )
    def test_rejected_value(self, tmp_path, capsys, args, reason):
        meters = tmp_path / "meters.csv"
        meters.write_text("meter_id,period_index,kwh\nm0,0,1.0\n")
        forecast = tmp_path / "forecast.csv"
        forecast.write_text("period_index,kwh\n0,1.0\n")
        args = [str(a).format(meters=meters, forecast=forecast) for a in args]
        assert_usage_error(capsys, args + ["--out", tmp_path / "x"], reason)

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_procure_bad_tolerance(self, tmp_path, capsys, tol):
        path = tmp_path / "inst.json"
        write_instance(one_period_instance(), path)
        args = ["procure", "--instance", path, "--tol", tol, "--out", tmp_path / "sol"]
        assert_usage_error(capsys, args, "gap tolerance must be finite and >= 0")
        assert not (tmp_path / "sol").exists()


class TestExperimentCommand:
    def config_file(self, tmp_path):
        return write_config(tmp_path, one_cell_config())

    def test_runs_and_writes_reports(self, tmp_path):
        cfg_path = self.config_file(tmp_path)
        out = tmp_path / "exp"
        assert run(["experiment", "--config", cfg_path, "--out", out]) == 0
        for name in ("results.csv", "costs.csv", "metadata.json", "kld_wape.csv"):
            assert (out / name).exists()

    def test_report_command_reemits(self, tmp_path):
        cfg_path = self.config_file(tmp_path)
        out = tmp_path / "exp"
        run(["experiment", "--config", cfg_path, "--out", out])
        out2 = tmp_path / "rep"
        assert run(
            ["report", "--results", out / "results.csv", "--config", cfg_path, "--out", out2]
        ) == 0
        assert (out2 / "costs.csv").read_bytes() == (out / "costs.csv").read_bytes()

    def test_exit_code_on_failure(self, tmp_path):
        cfg = ExperimentConfig(
            synth=SynthConfig(n_meters=10, n_weeks=5, seed=8),
            schemes=("hhs-ehh",),
            n_scenarios=3,
            seeds=(0,),
            train=TrainConfig(epochs=5, min_samples=10**9),  # forces cell failure
            group_kind="whole",
        )
        path = tmp_path / "bad.json"
        path.write_text(config_to_json(cfg))
        assert run(["experiment", "--config", path, "--out", tmp_path / "x"]) == 1

    def test_seed_override(self, tmp_path):
        cfg_path = self.config_file(tmp_path)
        out = tmp_path / "exp"
        assert run(["experiment", "--config", cfg_path, "--seed", 3, "--out", out]) == 0
        assert json.loads((out / "metadata.json").read_text())["seeds"] == [3]


class TestCsvDialect:
    def test_every_table_in_one_dialect(self, tmp_path):
        """Every stage's CSV holds no carriage return and reads back
        through ``read_csv`` with its own header."""
        out = tmp_path / "all"
        meters, forecast = out / "meters.csv", out / "forecast.csv"
        instance = tmp_path / "inst.json"
        write_instance(one_period_instance(), instance)
        config = write_config(tmp_path, one_cell_config(hetero_p=(1.0,)))
        for args in (
            ["synth", "--meters", 12, "--weeks", 5, "--seed", 1, "--kmeans", 2],
            ["privatize", "--input", meters, "--epsilon", 1.0],
            ["forecast", "--input", meters, "--scheme", "hhs-ehh", "--epochs", 5],
            ["scenarios", "--forecast", forecast, "--wape", 0.1, "--count", 3],
            ["procure", "--instance", instance],
            ["experiment", "--config", config],
        ):
            assert run(args + ["--out", out]) == 0, args
        tables = sorted(out.glob("*.csv"))
        assert len(tables) == 13
        for path in tables:
            data = path.read_bytes()
            assert b"\r" not in data, path.name
            header = data.decode().split("\n", 1)[0].split(",")
            rows = list(read_csv(path, path.stem, header))
            assert rows == [tuple(r) for r in csv.reader(data.decode().splitlines()[1:])], path.name
