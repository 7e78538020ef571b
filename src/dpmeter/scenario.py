"""Forecast-error scenarios calibrated to a backtest WAPE.

Errors are drawn independently per period from zero-mean Gaussians whose
scale is chosen so the expected absolute error reproduces the backtest
WAPE; probabilities are uniform Monte-Carlo weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import LoadSeries, _freeze, read_csv, write_csv
from .metrics import WapeScore


@dataclass(frozen=True)
class ErrorScenarioSet:
    """Sampled forecast-error paths with per-scenario probabilities."""

    errors: np.ndarray  # (S, T) deviations, same unit as the forecast
    probabilities: np.ndarray  # (S,)

    def __post_init__(self):
        object.__setattr__(self, "errors", _freeze(self.errors))
        object.__setattr__(self, "probabilities", _freeze(self.probabilities))
        if self.errors.ndim != 2 or self.errors.shape[0] < 1:
            raise ValueError("errors must be a non-empty (S, T) matrix")
        if self.probabilities.shape != (self.errors.shape[0],):
            raise ValueError("one probability per scenario required")
        if not np.isfinite(self.errors).all():
            raise ValueError("scenario errors must be finite")
        if not np.isfinite(self.probabilities).all():
            raise ValueError("scenario probabilities must be finite")
        if np.any(self.probabilities <= 0):
            raise ValueError("scenario probabilities must be > 0")
        if abs(self.probabilities.sum() - 1.0) > 1e-9:
            raise ValueError("scenario probabilities must sum to 1")

    @property
    def n_scenarios(self) -> int:
        return self.errors.shape[0]

    @property
    def n_periods(self) -> int:
        return self.errors.shape[1]


def calibrate_sigma(wape: WapeScore | float, forecast: LoadSeries | np.ndarray) -> np.ndarray:
    """Per-period error std devs reproducing the backtest WAPE in expectation.

    ``sigma_t = wape * |forecast_t| * sqrt(pi/2)`` so that the half-normal
    mean ``E|N(0, sigma_t)|`` equals ``wape * |forecast_t|``.
    """
    w = wape.value if isinstance(wape, WapeScore) else float(wape)
    if w < 0:
        raise ValueError("WAPE must be >= 0")
    values = np.asarray(forecast.values if isinstance(forecast, LoadSeries) else forecast)
    return w * np.abs(values) * math.sqrt(math.pi / 2.0)


def generate_scenarios(
    forecast: LoadSeries | np.ndarray,
    wape: WapeScore | float,
    n_scenarios: int,
    seed: int,
) -> ErrorScenarioSet:
    """Draw ``n_scenarios`` i.i.d. Gaussian error paths around a forecast."""
    if n_scenarios < 1:
        raise ValueError("need at least one scenario")
    sigma = calibrate_sigma(wape, forecast)
    rng = np.random.default_rng(seed)
    errors = rng.normal(0.0, 1.0, size=(n_scenarios, sigma.size)) * sigma
    probs = np.full(n_scenarios, 1.0 / n_scenarios)
    return ErrorScenarioSet(errors, probs)


def write_scenario_csv(scenarios: ErrorScenarioSet, path) -> None:
    write_csv(
        path,
        ["scenario", "period_index", "err_kwh", "prob"],
        (
            [s, t, scenarios.errors[s, t], scenarios.probabilities[s]]
            for s in range(scenarios.n_scenarios)
            for t in range(scenarios.n_periods)
        ),
    )


def read_scenario_csv(path) -> ErrorScenarioSet:
    """Scenarios ``0..S-1`` over periods ``0..T-1``; a negative index, an
    absent scenario, a scenario that misses a period, a repeated (scenario,
    period) row or two probabilities for one scenario raise ``ValueError``."""
    rows: dict[int, dict[int, float]] = {}
    probs: dict[int, float] = {}
    for scenario, period_index, err, prob in read_csv(
        path, "scenario", ["scenario", "period_index", "err_kwh", "prob"]
    ):
        s, t = int(scenario), int(period_index)
        errs = rows.setdefault(s, {})
        if t in errs:
            raise ValueError(f"duplicate row for scenario {s} period {t}")
        errs[t] = float(err)
        if probs.setdefault(s, float(prob)) != float(prob):
            raise ValueError(
                f"scenario {s} period {t} has probability {float(prob)!r}, "
                f"earlier rows {probs[s]!r}"
            )
    if min(rows) < 0 or min(min(d) for d in rows.values()) < 0:
        raise ValueError("scenario CSV holds a negative scenario or period index")
    n_s = max(rows) + 1
    absent = sorted(set(range(n_s)) - set(rows))
    if absent:
        raise ValueError(f"scenario CSV lacks scenarios {absent}")
    n_t = max(max(d) for d in rows.values()) + 1
    errors = np.zeros((n_s, n_t))
    for s, d in rows.items():
        if len(d) != n_t:
            raise ValueError(f"scenario {s} does not cover all periods")
        errors[s] = [d[t] for t in range(n_t)]
    prob = np.array([probs[s] for s in range(n_s)])
    return ErrorScenarioSet(errors, prob)
