"""Error-scenario calibration, generation, and system scaling."""

import math

import numpy as np
import pytest

from dpmeter.domain import LoadSeries
from dpmeter.scenario import (
    ErrorScenarioSet,
    calibrate_sigma,
    generate_scenarios,
    read_scenario_csv,
    write_scenario_csv,
)

from helpers import scale_to_system


class TestCalibrate:
    def test_zero_wape(self):
        np.testing.assert_array_equal(calibrate_sigma(0.0, np.ones(5)), np.zeros(5))

    def test_half_normal_factor(self):
        sigma = calibrate_sigma(0.1, np.array([10.0]))
        assert sigma[0] == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-9)

    def test_realized_wape_matches_target(self):
        rng = np.random.default_rng(0)
        forecast = rng.uniform(5, 20, 48)
        target = 0.08
        scen = generate_scenarios(forecast, target, 10**4, seed=7)
        realized = np.abs(scen.errors).sum(axis=1).mean() / forecast.sum()
        assert realized == pytest.approx(target, rel=0.02)


class TestGenerate:
    def test_single_zero_scenario(self):
        scen = generate_scenarios(np.ones(4), 0.0, 1, seed=0)
        np.testing.assert_array_equal(scen.errors, np.zeros((1, 4)))
        np.testing.assert_array_equal(scen.probabilities, [1.0])

    def test_uniform_probabilities_for_fifty(self):
        scen = generate_scenarios(np.ones(4), 0.1, 50, seed=1)
        np.testing.assert_allclose(scen.probabilities, 0.02)

    def test_column_means_clt_bound(self):
        forecast = np.full(6, 12.0)
        wape = 0.1
        n = 10**4
        scen = generate_scenarios(forecast, wape, n, seed=2)
        sigma = calibrate_sigma(wape, forecast)
        bound = 4.0 * sigma / math.sqrt(n)
        assert np.all(np.abs(scen.errors.mean(axis=0)) < bound)

    def test_deterministic(self):
        a = generate_scenarios(np.ones(8), 0.2, 25, seed=3)
        b = generate_scenarios(np.ones(8), 0.2, 25, seed=3)
        np.testing.assert_array_equal(a.errors, b.errors)

    def test_zero_scenarios_rejected(self):
        with pytest.raises(ValueError):
            generate_scenarios(np.ones(4), 0.1, 0, seed=0)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            ErrorScenarioSet(np.zeros((2, 3)), np.array([0.6, 0.6]))


class TestScale:
    def test_identity(self):
        s = LoadSeries("x", 0, np.array([1.0, 2.0]))
        np.testing.assert_array_equal(scale_to_system(s, 1.0).values, s.values)

    def test_half_share_doubles(self):
        s = LoadSeries("x", 0, np.array([3.0]))
        assert scale_to_system(s, 0.5).values[0] == 6.0

    def test_round_trip(self):
        s = LoadSeries("x", 0, np.array([1.7, -2.3, 0.9]))
        back = scale_to_system(s, 0.25).values * 0.25
        np.testing.assert_allclose(back, s.values, rtol=1e-15)

    def test_bad_share_rejected(self):
        s = LoadSeries("x", 0, np.ones(2))
        for share in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                scale_to_system(s, share)


class TestCsv:
    def test_round_trip(self, tmp_path):
        scen = generate_scenarios(np.ones(5) * 9.0, 0.15, 7, seed=4)
        path = tmp_path / "scen.csv"
        write_scenario_csv(scen, path)
        back = read_scenario_csv(path)
        np.testing.assert_array_equal(back.errors, scen.errors)
        np.testing.assert_array_equal(back.probabilities, scen.probabilities)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "scen.csv"
        path.write_text("scenario,period_index,prob\n0,0,1.0\n")
        with pytest.raises(ValueError, match=r"lacks columns \['err_kwh'\]"):
            read_scenario_csv(path)

    def test_absent_scenario_rejected(self, tmp_path):
        path = tmp_path / "scen.csv"
        path.write_text("scenario,period_index,err_kwh,prob\n0,0,1.0,0.5\n2,0,-1.0,0.5\n")
        with pytest.raises(ValueError, match=r"lacks scenarios \[1\]"):
            read_scenario_csv(path)

    @pytest.mark.parametrize("row", ["-1,0,-7.0,0.5", "1,-1,-7.0,0.5"], ids=["scenario", "period"])
    def test_negative_index_rejected(self, tmp_path, row):
        path = tmp_path / "scen.csv"
        path.write_text(f"scenario,period_index,err_kwh,prob\n0,0,1.0,0.5\n1,0,2.0,0.5\n{row}\n")
        with pytest.raises(ValueError, match="negative scenario or period index"):
            read_scenario_csv(path)

    def test_duplicate_row_rejected(self, tmp_path):
        path = tmp_path / "scen.csv"
        path.write_text("scenario,period_index,err_kwh,prob\n0,0,1.0,1.0\n0,1,2.0,1.0\n0,0,9.0,1.0\n")
        with pytest.raises(ValueError, match="duplicate row for scenario 0 period 0"):
            read_scenario_csv(path)

    def test_contradictory_probabilities_rejected(self, tmp_path):
        path = tmp_path / "scen.csv"
        path.write_text(
            "scenario,period_index,err_kwh,prob\n0,0,1.0,0.3\n0,1,2.0,0.5\n1,0,1.0,0.7\n1,1,2.0,0.7\n"
        )
        with pytest.raises(ValueError, match="scenario 0 period 1 has probability 0.5, earlier rows 0.3"):
            read_scenario_csv(path)
