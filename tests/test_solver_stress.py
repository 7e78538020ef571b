"""Differential stress test: reference-market procurement solves against HiGHS.

Every instance has T = 48 periods: the reference panel's highest-KLD k-means
group (k = 4, index 3), forecast with seed 0 under each scheme, priced in
the reference market at S scenarios and scenario seed ``seed``.  The
procurement solve must reach ``scipy.optimize.milp``'s optimum on the full
``build_milp`` model within a relative 1e-6, with a feasible point.

The deep ``hhs-dlcsys`` cases (the same forecast as ``nhhs``) are the
ones that once needed hundreds to thousands of nodes: S = 30 at scenario
seeds 0 and 2, S = 50 at seeds 0-5, and S = 100 at seed 1.  On the cell
model, with OpenBLAS on one thread on a 2-CPU Xeon, they take 9 and 35
nodes at S = 30; 19, 9, 3, 13, 59 and 61 at S = 50; and 3 at S = 100:
0.02 to 0.25 s per solve, and 0.04 s (111 LP iterations, 78 of them in
the root LP) at S = 100, where HiGHS takes about 2 s.  That last case
also caps its LP iterations, so that a regression in the simplex
pricing or in the cell model's start basis fails here.
"""

import dataclasses

import pytest

from dpmeter.domain import compute_dlc
from dpmeter.experiment import (
    ExperimentConfig,
    _reference_day,
    _scheme_of,
    forecast_to_instance,
    load_panel,
    make_market,
    select_group,
)
from dpmeter.forecast import TrainConfig, forecast_scheme
from dpmeter.milp import check_feasibility
from dpmeter.procurement import build_milp, solve
from dpmeter.synth import SynthConfig

from helpers import highs_objective

CONFIG = ExperimentConfig(
    synth=SynthConfig(n_meters=200, n_weeks=8, seed=0),
    train=TrainConfig(epochs=80),
    group_kind="kmeans",
    group_k=4,
    group_index=3,
)
SCHEMES = {  # name -> (epsilon, gamma), as in the acceptance c13 cells
    "nhhs": (None, None),
    "hhs-dlcsys": (None, None),
    "hhs-ehh": (None, None),
    "hhs-ddp": (0.25, 0.75),
}
CASES = (
    [(20, name, seed) for name in SCHEMES for seed in range(4)]
    + [(30, name, seed) for name in SCHEMES for seed in (1, 3)]
    + [(50, name, seed) for name in ("hhs-ehh", "hhs-ddp") for seed in range(3)]
    + [(30, "hhs-dlcsys", seed) for seed in (0, 2)]
    + [(50, "hhs-dlcsys", seed) for seed in range(6)]
    + [(100, "hhs-dlcsys", 1)]
)


@pytest.fixture(scope="module")
def reference():
    """(group panel, system DLC, reference day) shared by every case."""
    panel = load_panel(CONFIG)
    group_panel, _, _ = select_group(CONFIG, panel)
    return group_panel, compute_dlc(panel), _reference_day(group_panel, CONFIG.market.sample_share)


@pytest.fixture(scope="module")
def forecasts(reference):
    group_panel, dlc_sys, _ = reference
    return {
        name: forecast_scheme(_scheme_of(name, *params), group_panel, dlc_sys, CONFIG.train, 0)
        for name, params in SCHEMES.items()
    }


@pytest.mark.parametrize("n_scen, scheme, seed", CASES)
def test_solve_matches_highs(reference, forecasts, n_scen, scheme, seed):
    cfg = dataclasses.replace(CONFIG, n_scenarios=n_scen)
    market = make_market(reference[2], n_scen, cfg.market, cfg.group_seed)
    fc = forecasts[scheme]
    model = build_milp(forecast_to_instance(fc.forecast, fc.wape_backtest.value, market, cfg, seed))
    sol = solve(model, tol=cfg.solver_tol)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(highs_objective(model.lp), rel=1e-6)
    assert check_feasibility(model.lp, sol.lp_point) <= 1e-6
    if (n_scen, scheme, seed) == (100, "hhs-dlcsys", 1):
        # guards the simplex pricing and the start basis: Dantzig's rule took
        # 3,788 iterations here, and a crash with every CVaR row tight 202
        assert sol.lp_iterations <= 150
