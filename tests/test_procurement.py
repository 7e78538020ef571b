"""Procurement model, solver, CVaR machinery, and oracle cross-checks."""

import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from dpmeter.forecast import TrainConfig
from dpmeter.market import SystemExogenous
import dpmeter.procurement as procurement
from dpmeter.milp import SimplexSolver, check_feasibility, solve_lp, solve_milp
from dpmeter.milp import simplex
from dpmeter.milp.simplex import _FEAS_TOL
from dpmeter.procurement import (
    ProcurementInstance,
    _cell_model,
    _reduce,
    brute_force_oracle,
    build_milp,
    cvar_kinks,
    cvar_of_costs,
    default_volume_bounds,
    evaluate_selection,
    read_instance,
    solve,
    write_instance,
)
from dpmeter.scenario import ErrorScenarioSet
from dpmeter.synth import SynthConfig

from helpers import (
    highs_objective,
    loop_basis_matrix,
    loop_build_milp,
    loop_check_coverage,
    loop_cell_model,
    loop_cells,
    loop_reduce,
    random_instance,
    uniform_curve,
)


def flat_instance(beta=0.0, price=50.0):
    """T=1, S=1, single bracket everywhere: optimum is a closed form."""
    scen = ErrorScenarioSet(np.zeros((1, 1)), np.ones(1))
    da = uniform_curve(40.0, 80.0, 1, [price])
    bal = uniform_curve(-20.0, 20.0, 1, [80.0])
    exo = SystemExogenous(np.array([50.0]), np.zeros((1, 1)))
    return ProcurementInstance(
        d_fore=np.array([10.0]),
        scenarios=scen,
        da_curve=da,
        bal_curves=(bal,),
        exogenous=exo,
        beta=beta,
        alpha=0.9,
        d_da_lower=np.array([-5.0]),
        d_da_upper=np.array([15.0]),
    )


class TestCvar:
    def test_worst_half(self):
        assert cvar_of_costs([10.0, 20.0], [0.5, 0.5], 0.5) == pytest.approx(20.0)

    def test_all_equal(self):
        for alpha in (0.1, 0.5, 0.95):
            assert cvar_of_costs([7.0] * 5, [0.2] * 5, alpha) == pytest.approx(7.0)

    def test_matches_tail_mean_oracle(self):
        rng = np.random.default_rng(42)
        alpha = 0.95
        for _ in range(100):
            n = int(rng.integers(2, 60))
            costs = rng.normal(0, 100, n)
            probs = np.full(n, 1.0 / n)
            got = cvar_of_costs(costs, probs, alpha)
            # independent oracle: scan zeta over sorted costs, tail average
            best = np.inf
            for z in np.sort(costs):
                best = min(best, z + np.maximum(costs - z, 0).mean() / (1 - alpha))
            assert got == pytest.approx(best, abs=1e-9)

    def test_bad_probs_rejected(self):
        with pytest.raises(ValueError):
            cvar_of_costs([1.0], [0.5], 0.9)

    def test_kinks_rows_and_minimizing_zeta(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            costs = rng.integers(0, 5, (6, n)) * rng.normal(100, 30)  # many ties
            costs[:3] += rng.normal(0, 10, (3, n))
            probs = rng.dirichlet(np.ones(n))
            alpha = float(rng.uniform(0.5, 0.99))
            values, zetas = cvar_kinks(costs, probs, alpha)
            assert values.shape == zetas.shape == (6,)
            for row, value, zeta in zip(costs, values, zetas):
                assert value == cvar_of_costs(row, probs, alpha)
                assert zeta in row
                at_zeta = zeta + probs @ np.maximum(row - zeta, 0.0) / (1 - alpha)
                assert at_zeta == pytest.approx(value, rel=1e-12, abs=1e-9)


class TestInstance:
    @pytest.mark.parametrize(
        "change",
        [
            {"delta": 20.0 + 1e-12},
            {"demand_levels": np.array([-10.0, 10.0]) + 1e-12},
            {"demand_levels": np.array([-10.0, 10.0, 30.0]), "prices": np.full(3, 80.0)},
        ],
        ids=["delta", "level", "n_levels"],
    )
    def test_balancing_grid_mismatch_rejected(self, change):
        grid = uniform_curve(-20.0, 20.0, 2, [70.0, 90.0])
        inst = flat_instance()
        two = dict(
            scenarios=ErrorScenarioSet(np.zeros((2, 1)), np.full(2, 0.5)),
            exogenous=SystemExogenous(np.array([50.0]), np.zeros((2, 1))),
        )
        dataclasses.replace(inst, bal_curves=(grid, grid.shifted_prices(5.0)), **two)
        other = dataclasses.replace(grid, **change)
        with pytest.raises(ValueError, match="share one demand grid"):
            dataclasses.replace(inst, bal_curves=(grid, other), **two)


class TestBuildMilp:
    def test_structure_counts(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng, T=2, S=2, B=3, F=3)
        model = build_milp(inst)
        assert model.off_u_bal - model.off_u_da == 6  # u_da
        assert model.lp.n_cols - model.off_u_bal == 12  # u_bal
        assert model.off_c_bal - model.off_c_da == 6  # c_da
        assert model.off_u_da - model.off_c_bal == 12  # c_bal

    def test_single_bracket_forced(self):
        inst = flat_instance()
        model = build_milp(inst)
        assert model.B == 1 and model.F == 1
        sol = solve(model)
        assert sol.status == "optimal"
        assert sol.u_da[0, 0] == 1.0 and sol.u_bal[0, 0, 0] == 1.0

    def test_beta_zero_has_no_risk_term_in_objective(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, T=2, S=2, B=2, F=2, beta=0.0)
        model = build_milp(inst)
        zeta_obj = model.lp.obj[model.col_zeta]
        eta_obj = model.lp.obj[model.off_eta : model.off_eta + model.S]
        assert zeta_obj == 0.0
        assert np.all(eta_obj == 0.0)

    def test_uncovered_grid_raises_with_period(self):
        inst = flat_instance()
        bad = ProcurementInstance(
            d_fore=inst.d_fore,
            scenarios=inst.scenarios,
            da_curve=uniform_curve(52.0, 80.0, 1, [50.0]),  # misses low demands
            bal_curves=inst.bal_curves,
            exogenous=inst.exogenous,
            beta=inst.beta,
            alpha=inst.alpha,
            d_da_lower=inst.d_da_lower,
            d_da_upper=inst.d_da_upper,
        )
        with pytest.raises(ValueError, match="period 0"):
            build_milp(bad)

    def test_uncovered_balancing_grid_raises_with_scenario(self):
        # two uncovered groups, (s=1, t=0) and (s=0, t=1): scenario-major
        # order names the second one first
        inst = flat_instance()
        bad = dataclasses.replace(
            inst,
            d_fore=np.array([10.0, 10.0]),
            scenarios=ErrorScenarioSet(np.zeros((2, 2)), np.full(2, 0.5)),
            bal_curves=inst.bal_curves * 2,
            exogenous=SystemExogenous(np.full(2, 50.0), np.array([[0.0, 9.0], [9.0, 0.0]])),
            d_da_lower=np.full(2, -5.0),
            d_da_upper=np.full(2, 15.0),
        )
        with pytest.raises(ValueError, match="scenario 0, period 1") as got:
            build_milp(bad)
        with pytest.raises(ValueError) as want:
            loop_check_coverage(bad)
        assert str(got.value) == str(want.value)


def assert_same_lp(got, want):
    """Every array of the two LPs and the offset equal bit for bit."""
    for name in ("col_lower", "col_upper", "obj", "is_integer", "row_lower", "row_upper"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.row_matrix, name), getattr(want.row_matrix, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert np.float64(got.obj_offset).tobytes() == np.float64(want.obj_offset).tobytes()


def assert_same_model(got, want):
    """Every array of the two models equal bit for bit."""
    assert_same_lp(got.lp, want.lp)
    for name in ("T", "S", "B", "F", "off_d_da", "off_d_bal", "col_zeta", "off_eta",
                 "off_c_da", "off_c_bal", "off_u_da", "off_u_bal"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.big_m.tobytes() == want.big_m.tobytes()
    assert got.k_mat.tobytes() == want.k_mat.tobytes()


class TestArrayBuild:
    """``build_milp`` fills the model block by block with numpy; it must
    equal the per-entry loop build in ``helpers.loop_build_milp``."""

    def test_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            inst = random_instance(rng)
            assert_same_model(build_milp(inst), loop_build_milp(inst))
        inst = random_instance(rng, T=3, S=4, B=5, F=6)
        assert_same_model(build_milp(inst), loop_build_milp(inst))

    def test_exact_zero_coefficients_dropped(self):
        inst = zero_coefficient_instance()
        model = build_milp(inst)
        assert_same_model(model, loop_build_milp(inst))
        assert np.all(model.lp.row_matrix.data != 0.0)
        assert model.lp.obj[model.u_da_col(0, 1)] == 0.0
        assert model.lp.col_upper[model.c_da_col(1, 0)] == 0.0

    def test_c11_instance(self):
        inst = read_instance(Path(__file__).parent / "data" / "c11_hhs_dlcsys_seed5.json")
        assert_same_model(build_milp(inst), loop_build_milp(inst))

    def test_coverage_messages_match_loop_check(self):
        rng = np.random.default_rng(9)
        n_raised = 0
        for _ in range(30):
            inst = random_instance(rng, T=3, S=3)
            shift = rng.normal(0, 4, inst.exogenous.d_imb_base.shape)
            bad = dataclasses.replace(
                inst,
                exogenous=SystemExogenous(
                    inst.exogenous.d_sys_base + rng.normal(0, 2, inst.n_periods),
                    inst.exogenous.d_imb_base + shift,
                ),
            )
            try:
                loop_check_coverage(bad)
            except ValueError as exc:
                n_raised += 1
                with pytest.raises(ValueError) as got:
                    build_milp(bad)
                assert str(got.value) == str(exc)
            else:
                assert_same_model(build_milp(bad), loop_build_milp(bad))
        assert n_raised >= 10


class TestRunTimePath:
    """The run-time solve builds the cell model alone: the exact model is
    assembled only when ``MilpModel.lp`` is first read."""

    def test_solve_leaves_exact_model_unbuilt(self):
        inst = read_instance(Path(__file__).parent / "data" / "c11_hhs_dlcsys_seed5.json")
        model = build_milp(inst)
        sol = solve(model)
        assert sol.status == "optimal"
        assert "lp" not in vars(model)
        assert check_feasibility(model.lp, sol.lp_point) <= 1e-6
        assert "lp" in vars(model) and model.lp is model.lp

    def test_experiment_and_procure_command_never_assemble(self, monkeypatch, tmp_path):
        import dpmeter.cli as cli
        import dpmeter.experiment as experiment

        models = []
        for module in (experiment, cli):

            def recorded(inst, _original=module.build_milp):
                models.append(_original(inst))
                return models[-1]

            monkeypatch.setattr(module, "build_milp", recorded)
        cfg = experiment.ExperimentConfig(
            synth=SynthConfig(n_meters=30, n_weeks=5, seed=7),
            schemes=("hhs-ehh",),
            epsilon_grid=(1.0,),
            gamma_grid=(0.0,),
            n_scenarios=4,
            train=TrainConfig(epochs=15),
            group_kind="whole",
        )
        results, failures = experiment.run_experiment(cfg)
        assert len(results) == 1 and not failures
        path = tmp_path / "inst.json"
        write_instance(random_instance(np.random.default_rng(3), T=2, S=2), path)
        assert cli.main(["procure", "--instance", str(path), "--out", str(tmp_path / "sol")]) == 0
        assert len(models) == 2
        assert not any("lp" in vars(m) for m in models)


def grid_edge_sliver():
    """``flat_instance`` whose reachable day-ahead demand starts 5e-10 below
    the curve: inside the coverage tolerance, so ``_reduce`` clips
    ``d_da_lower`` up to the curve's first cell."""
    inst = flat_instance()
    lower = inst.da_curve.lo - inst.exogenous.d_sys_base - 5e-10
    return dataclasses.replace(inst, d_da_lower=lower)


def balancing_sliver():
    """T = 2, S = 2: two day-ahead brackets stay free, and the one balancing
    bracket of each scenario is forced.  The reachable imbalance of
    (s=1, t=0) and (s=0, t=1) ends 5e-10 above the grid, so ``_reduce``
    clips ``d_da_lower`` up to the grid's last cell."""
    k_mat = np.array([[10.0, 10.0], [11.0, 9.0]])
    return ProcurementInstance(
        d_fore=np.full(2, 10.0),
        scenarios=ErrorScenarioSet(k_mat - 10.0, np.array([0.4, 0.6])),
        da_curve=uniform_curve(0.0, 120.0, 2, [40.0, 60.0]),
        bal_curves=(uniform_curve(-20.0, 20.0, 1, [80.0]), uniform_curve(-20.0, 20.0, 1, [85.0])),
        exogenous=SystemExogenous(np.full(2, 50.0), np.zeros((2, 2))),
        beta=0.5,
        alpha=0.9,
        d_da_lower=np.array([-9.0, -10.0]) - 5e-10,
        d_da_upper=np.full(2, 15.0),
    )


def zero_coefficient_instance():
    """Instance with exact-zero cost and big-M coefficients."""
    rng = np.random.default_rng(8)
    inst = random_instance(rng, T=3, S=2, B=3, F=3)
    lo, hi = inst.d_da_lower.copy(), inst.d_da_upper.copy()
    lo[0] = 0.0  # u_da cost coefficients da_price * lo vanish
    lo[1] = hi[1] = 1.0  # big_m = 0: the -M coefficients vanish
    prices = inst.da_curve.prices.copy()
    prices[0] = 0.0  # c_da cost coefficients vanish
    return dataclasses.replace(
        inst,
        d_da_lower=lo,
        d_da_upper=hi,
        da_curve=dataclasses.replace(inst.da_curve, prices=prices),
    )


def parity_instances():
    """The instances on which the array reduction, cells and cell model must
    equal the loop references."""
    rng = np.random.default_rng(17)
    insts = [random_instance(rng) for _ in range(40)]
    insts.append(random_instance(rng, T=3, S=4, B=5, F=6))
    insts.append(zero_coefficient_instance())
    insts.append(read_instance(Path(__file__).parent / "data" / "c11_hhs_dlcsys_seed5.json"))
    insts += [grid_edge_sliver(), balancing_sliver()]
    return insts


def assert_same_cells(got, want):
    """``_cells`` equals the loop's list of cells bit for bit."""
    assert got.period.tolist() == [c[0] for c in want]
    assert got.lower.tobytes() == np.array([c[1] for c in want]).tobytes()
    assert got.upper.tobytes() == np.array([c[2] for c in want]).tobytes()
    assert got.bracket_da.tolist() == [c[3] for c in want]
    assert got.bracket_bal.T.tolist() == [c[4] for c in want]


def assert_same_cell_model(got, want, inst):
    """Every array of the two cell models equal bit for bit, except three
    kinds of sums that the array form adds in another order than the loop:
    an objective entry (one term per scenario), a CVaR row's bound (one term
    per period with one cell) and the offset (one term per scenario).  Each
    may differ by the summation error bound ``n * eps * sum |term|``."""
    S, eps = inst.n_scenarios, np.finfo(float).eps
    bounds = want.row_upper.copy()
    bounds[:S] = got.row_upper[:S]
    assert_same_lp(
        dataclasses.replace(got, obj=want.obj, obj_offset=want.obj_offset),
        dataclasses.replace(want, row_upper=bounds),
    )
    probs = inst.scenarios.probabilities
    m = want.row_matrix
    cvar = csr_matrix((m.data, m.indices, m.indptr), shape=(m.n_rows, m.n_cols))[:S]
    assert np.all(np.abs(got.obj - want.obj) <= S * eps * (probs @ np.abs(cvar).toarray()))
    cells = loop_cells(inst, *loop_reduce(inst)[:2])
    periods = [c[0] for c in cells]
    k_mat = inst.realized_demand()
    terms = np.array([
        [inst.bal_curves[s].prices[c[4][s]] * k_mat[s, c[0]] for s in range(S)]
        for c in cells if periods.count(c[0]) == 1
    ]).reshape(-1, S)
    const_err = terms.shape[0] * eps * np.abs(terms).sum(axis=0)
    assert np.all(np.abs(got.row_upper[:S] - want.row_upper[:S]) <= const_err)
    offset_err = S * eps * (probs @ np.abs(want.row_upper[:S])) + probs @ const_err
    assert abs(got.obj_offset - want.obj_offset) <= offset_err


def coinciding_edge_instances():
    """T = S = 1 instances whose day-ahead and balancing grids span mirrored
    ranges with equally many brackets, so their edges meet in d_da terms
    up to round-off: where they meet, the cheapest brackets can mix sides."""
    rng = np.random.default_rng(7)
    return [random_instance(rng, T=1, S=1, B=3, F=3) for _ in range(20)]


class TestReducedModel:
    """``solve`` clips the bounds, cuts the cells and builds its cell model
    from arrays; each must equal the per-period loops in ``helpers``."""

    @pytest.mark.parametrize("inst", parity_instances())
    def test_matches_loop_reference(self, inst):
        lo, hi, group = _reduce(inst)
        want_lo, want_hi, want_group = loop_reduce(inst)
        assert (lo.tobytes(), hi.tobytes(), group) == (want_lo.tobytes(), want_hi.tobytes(), want_group)
        lp, cells = _cell_model(inst, lo, hi)[:2]
        assert_same_cells(cells, loop_cells(inst, lo, hi))
        assert_same_cell_model(lp, loop_cell_model(inst), inst)

    @pytest.mark.parametrize(
        "make, lower", [(grid_edge_sliver, [-10.0]), (balancing_sliver, [-9.0, -10.0])]
    )
    def test_sliver_bounds_clipped_to_cell(self, make, lower):
        inst = make()
        lo, hi, _ = _reduce(inst)
        assert np.all(inst.d_da_lower < lo) and lo.tolist() == lower
        assert hi.tobytes() == inst.d_da_upper.tobytes()
        model = build_milp(inst)
        sol = solve(model)
        assert sol.status == "optimal"
        assert check_feasibility(model.lp, sol.lp_point) <= 1e-6
        assert sol.objective == pytest.approx(highs_objective(model.lp), rel=1e-9)

    @pytest.mark.parametrize("market", ["da", "bal"])
    def test_bound_on_bracket_edge(self, market):
        # d_da_lower sits exactly on an edge of the day-ahead grid, or of
        # scenario 0's balancing grid, in period 0; the solve must still
        # give a feasible full-model point whose brackets are the reported ones
        rng = np.random.default_rng(31)
        inst = random_instance(rng, T=2, S=3, B=4, F=4)
        if market == "da":
            edge = inst.da_curve.demand_levels[1] - inst.da_curve.delta / 2.0
            lower = edge - inst.exogenous.d_sys_base[0]
        else:
            grid = inst.bal_curves[0]
            imb = inst.exogenous.d_imb_base[0, 0] + inst.realized_demand()[0, 0]
            lower = imb - (grid.demand_levels[2] - grid.delta / 2.0)
        bounds = inst.d_da_lower.copy()
        bounds[0] = lower
        inst = dataclasses.replace(inst, d_da_lower=bounds)
        assert _reduce(inst)[0][0] == lower
        model = build_milp(inst)
        sol = solve(model)
        assert sol.status == "optimal"
        x = sol.lp_point
        assert check_feasibility(model.lp, x) <= 1e-6
        T, S, B, F = model.T, model.S, model.B, model.F
        u_da = x[model.off_u_da : model.off_u_da + T * B].reshape(T, B)
        u_bal = x[model.off_u_bal : model.off_u_bal + S * T * F].reshape(S, T, F)
        assert np.array_equal(u_da, sol.u_da) and np.array_equal(u_bal, sol.u_bal)
        assert np.array_equal(x[model.off_d_da : model.off_d_da + T], sol.d_da)
        assert sol.objective == pytest.approx(highs_objective(model.lp), rel=1e-9)

    def test_coinciding_edges_match_highs(self):
        n_points = 0
        for inst in coinciding_edge_instances():
            lo, hi, _ = _reduce(inst)
            cells = _cell_model(inst, lo, hi)[1]
            n_points += int(np.count_nonzero(cells.lower == cells.upper))
            model = build_milp(inst)
            sol = solve(model)
            assert sol.status == "optimal"
            assert check_feasibility(model.lp, sol.lp_point) <= 1e-6
            assert sol.objective == pytest.approx(highs_objective(model.lp), rel=1e-9)
        assert n_points >= 5

    def test_solution_reports_solver_counters(self, monkeypatch):
        results = []

        def record(lp, **kwargs):
            results.append(solve_milp(lp, **kwargs))
            return results[-1]

        monkeypatch.setattr(procurement, "solve_milp", record)
        inst = read_instance(Path(__file__).parent / "data" / "c11_hhs_dlcsys_seed5.json")
        sol = solve(build_milp(inst))
        (res,) = results
        assert res.lp_iterations > 0 and res.refactorizations > 0
        assert (sol.n_nodes, sol.lp_iterations, sol.refactorizations) == (
            res.n_nodes, res.lp_iterations, res.refactorizations
        )
        assert (sol.phase1_iterations, sol.bland_switches) == (
            res.phase1_iterations, res.bland_switches
        )


class TestStartBasis:
    """``_cell_model``'s start basis is primal feasible, so the root LP of
    every cell model runs no phase 1 and reaches the cold-start optimum."""

    def test_start_basis_is_feasible(self):
        rng = np.random.default_rng(29)
        insts = parity_instances() + [random_instance(rng, T=5, S=5, B=5, F=6) for _ in range(10)]
        n_multi = 0
        for inst in insts:
            lo, hi, group = _reduce(inst)
            if group is not None:
                continue
            lp, _, multi, basis = _cell_model(inst, lo, hi)
            solver = SimplexSolver(lp, basis)
            assert np.array_equal(solver.basis, basis)  # installed without repair
            xb = solver.x[basis]
            assert np.all(solver.lb[basis] - _FEAS_TOL <= xb)
            assert np.all(xb <= solver.ub[basis] + _FEAS_TOL)
            res = solver.solve()
            assert res.status == "optimal" and res.phase1_iterations == 0
            assert res.objective == pytest.approx(solve_lp(lp).objective, rel=1e-9)
            n_multi += bool(multi.any())
        assert n_multi >= 20

    def test_solve_roots_run_no_phase1(self, monkeypatch):
        # the first LP solve of each procurement solve is its root
        roots, solve_from = [], SimplexSolver.solve

        def recorded(self):
            res = solve_from(self)
            if not hasattr(self, "seen"):
                self.seen = True
                roots.append(res)
            return res

        monkeypatch.setattr(SimplexSolver, "solve", recorded)
        rng = np.random.default_rng(31)
        insts = [random_instance(rng, T=5, S=5, B=5, F=6) for _ in range(6)]
        insts.append(read_instance(Path(__file__).parent / "data" / "c11_hhs_dlcsys_seed5.json"))
        for inst in insts:
            assert solve(build_milp(inst)).status == "optimal"
        assert len(roots) == len(insts)
        assert all(r.iterations > 0 and r.phase1_iterations == 0 for r in roots)

    def test_start_is_the_var_split_of_its_crash_point(self):
        # the crash point's scenario costs, from its volumes and cells alone;
        # at alpha = 0.9 and S <= 5 only the costliest scenario is in the tail
        rng = np.random.default_rng(29)
        insts = parity_instances() + [random_instance(rng, T=5, S=5, B=5, F=6) for _ in range(10)]
        insts += [random_instance(rng, S=8, alpha=a) for a in (0.2, 0.4, 0.6) for _ in range(4)]
        n_checked = n_tail = 0
        for inst in insts:
            lo, hi, group = _reduce(inst)
            if group is not None:
                continue
            lp, cells, multi, basis = _cell_model(inst, lo, hi)
            T, S = inst.n_periods, inst.n_scenarios
            x = SimplexSolver(lp, basis).x
            chosen = ~multi
            chosen[multi] = x[T + 1 + S : T + 1 + S + multi.sum()] > 0.5
            sel = np.flatnonzero(chosen)
            assert sel.size == T
            d_da = x[:T]
            assert np.all(np.isclose(d_da, cells.lower[sel]) | np.isclose(d_da, cells.upper[sel]))
            b_sel, f_sel = cells.bracket_da[sel], cells.bracket_bal[:, sel]
            costs = evaluate_selection(inst, d_da, b_sel, f_sel)[4]
            # each cvar row has one of eta[s], its slack or zeta basic
            eta_basic = np.isin(T + 1 + np.arange(S), basis)
            slack_basic = np.isin(lp.n_cols + np.arange(S), basis)
            assert T in basis and not np.any(eta_basic & slack_basic)
            (at_var,) = np.flatnonzero(~eta_basic & ~slack_basic)
            zeta = costs[at_var]
            assert x[T] == pytest.approx(zeta, rel=1e-12)
            # zeta minimizes the kink function; where it is flat between two
            # costs, round-off may pick either end
            probs = inst.scenarios.probabilities
            at_zeta = zeta + probs @ np.maximum(costs - zeta, 0.0) / (1.0 - inst.alpha)
            assert at_zeta == pytest.approx(cvar_kinks(costs, probs, inst.alpha)[0][0], rel=1e-12)
            np.testing.assert_array_equal(eta_basic, costs > zeta)
            n_tail += int(eta_basic.any())
            n_checked += 1
        assert n_checked >= 50 and n_tail >= 10

    def test_root_iterations_are_the_first_solve(self, monkeypatch):
        roots, solve_from = [], SimplexSolver.solve

        def recorded(self):
            res = solve_from(self)
            if not hasattr(self, "seen"):
                self.seen = True
                roots.append(res)
            return res

        monkeypatch.setattr(SimplexSolver, "solve", recorded)
        rng = np.random.default_rng(31)
        insts = [random_instance(rng, T=5, S=5, B=5, F=6) for _ in range(3)]
        insts.append(read_instance(Path(__file__).parent / "data" / "c11_hhs_dlcsys_seed5.json"))
        for inst in insts:
            sol = solve(build_milp(inst))
            assert sol.root_iterations == roots[-1].iterations > 0
            assert sol.root_iterations <= sol.lp_iterations


class TestSolve:
    def test_flat_price_closed_form(self):
        # cost = 50*d + 80*(10 - d) = 800 - 30*d over d in [-5, 15]: the
        # balancing market pays more than day-ahead costs, so the LSE buys
        # to its upper bound and sells the surplus back
        inst = flat_instance(beta=0.0)
        sol = solve(build_milp(inst))
        assert sol.status == "optimal"
        assert sol.d_da[0] == pytest.approx(15.0, abs=1e-6)
        assert sol.objective == pytest.approx(350.0, abs=1e-5)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_bad_gap_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="gap tolerance must be finite and >= 0"):
            solve(build_milp(random_instance(np.random.default_rng(7))), tol=tol)

    def test_solution_feasible_in_full_model(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            inst = random_instance(rng)
            model = build_milp(inst)
            sol = solve(model)
            assert sol.status == "optimal"
            assert check_feasibility(model.lp, sol.lp_point) <= 1e-6

    def test_linearization_exactness_post_solve(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(10):
            inst = random_instance(rng)
            model = build_milp(inst)
            sol = solve(model)
            x = sol.lp_point
            for t in range(model.T):
                d = x[model.off_d_da + t]
                for bb in range(model.B):
                    u = x[model.u_da_col(t, bb)]
                    c_sem = x[model.c_da_col(t, bb)] + inst.d_da_lower[t] * u
                    worst = max(worst, abs(c_sem - u * d))
            for s in range(model.S):
                for t in range(model.T):
                    d = x[model.d_bal_col(s, t)]
                    for f in range(model.F):
                        u = x[model.u_bal_col(s, t, f)]
                        lo_bal = model.k_mat[s, t] - inst.d_da_upper[t]
                        c_sem = x[model.c_bal_col(s, t, f)] + lo_bal * u
                        worst = max(worst, abs(c_sem - u * d))
        assert worst < 1e-9

    def test_expected_cost_decomposition(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, beta=0.0)
        sol = solve(build_milp(inst))
        recomputed = float(inst.scenarios.probabilities @ sol.scenario_costs)
        assert sol.expected_cost == pytest.approx(recomputed, abs=1e-8)
        assert sol.objective == pytest.approx(sol.expected_cost, abs=1e-8)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(11)
        for k in range(20):
            inst = random_instance(rng)
            sol = solve(build_milp(inst), tol=1e-7)
            ref = brute_force_oracle(inst, grid_points=14)
            assert sol.status == "optimal" and ref.status == "optimal"
            scale = max(1.0, abs(ref.objective))
            assert sol.objective <= ref.objective + 1e-5 * scale, f"case {k}: solver worse"
            assert sol.objective >= ref.objective - 1e-5 * scale, f"case {k}: oracle worse"

    def test_risk_monotonicity(self):
        rng = np.random.default_rng(19)
        inst0 = random_instance(rng, T=2, S=2, B=3, F=3, beta=0.0)
        results = []
        for beta in (0.0, 0.5, 1.0, 5.0):
            inst = ProcurementInstance(
                d_fore=inst0.d_fore,
                scenarios=inst0.scenarios,
                da_curve=inst0.da_curve,
                bal_curves=inst0.bal_curves,
                exogenous=inst0.exogenous,
                beta=beta,
                alpha=0.75,
                d_da_lower=inst0.d_da_lower,
                d_da_upper=inst0.d_da_upper,
            )
            results.append(solve(build_milp(inst)))
        tol = 1e-6
        for a, b in zip(results, results[1:]):
            assert b.expected_cost >= a.expected_cost - tol
            assert b.cvar <= a.cvar + tol


class TestSolverLimits:
    def test_limits_return_status(self, monkeypatch):
        # a search cut at its node or iteration cap is a status, not a raise
        model = build_milp(random_instance(np.random.default_rng(26), T=5, S=5, B=5, F=6))
        assert solve(model).n_nodes > 1
        monkeypatch.setattr(procurement, "solve_milp", functools.partial(solve_milp, max_nodes=1))
        sol = solve(model)
        assert sol.status == "node_limit" and sol.objective == np.inf and sol.lp_point is None
        monkeypatch.undo()
        monkeypatch.setattr(simplex, "_ITER_CAP_BASE", -1)
        monkeypatch.setattr(simplex, "_ITER_CAP_PER_DIM", 0)
        sol = solve(model)
        assert sol.status == "iteration_limit" and sol.objective == np.inf


class TestRefactorization:
    def test_dense_copy_gather_on_parity_instances(self):
        # the kernel inverse gathered from the dense copy of A equals the one
        # from the loop-built basis bit for bit, at the start basis and at
        # the root optimum of every cell model
        n_checked = 0
        for inst in parity_instances():
            lo, hi, group = _reduce(inst)
            if group is not None:
                continue
            lp, _, _, basis = _cell_model(inst, lo, hi)
            solver = SimplexSolver(lp, basis)
            for _ in range(2):
                gathered = solver._kernel_inverse()
                B = loop_basis_matrix(solver)
                assert gathered.tobytes() == solver._kernel_inverse(B).tobytes()
                solver.solve()
                n_checked += 1
        assert n_checked >= 80


class TestNumericalRegressions:
    def test_c11_dlcsys_seed5_instance(self):
        # hhs-dlcsys, seed 5 of the criterion-11 experiment (T=48, S=20):
        # the root relaxation once pivoted on round-off entries until its
        # basis turned singular
        inst = read_instance(Path(__file__).parent / "data" / "c11_hhs_dlcsys_seed5.json")
        model = build_milp(inst)
        sol = solve(model)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(highs_objective(model.lp), rel=1e-6)
        assert check_feasibility(model.lp, sol.lp_point) <= 1e-6


class TestOracle:
    def test_matches_flat_closed_form(self):
        inst = flat_instance(beta=0.0)
        ref = brute_force_oracle(inst)
        assert ref.objective == pytest.approx(350.0, abs=1e-6)

    def test_grid_refinement_stability(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, T=2, S=2, B=2, F=2)
        a = brute_force_oracle(inst, grid_points=8)
        b = brute_force_oracle(inst, grid_points=16)
        assert a.objective == pytest.approx(b.objective, abs=1e-6)

    def test_too_large_rejected(self):
        rng = np.random.default_rng(5)
        inst = random_instance(rng, T=3, S=2, B=2, F=2)
        with pytest.raises(ValueError):
            brute_force_oracle(inst, max_boxes=2)


class TestInstanceIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        inst = random_instance(rng, T=2, S=2, B=3, F=2)
        path = tmp_path / "inst.json"
        write_instance(inst, path)
        back = read_instance(path)
        np.testing.assert_allclose(back.d_fore, inst.d_fore)
        np.testing.assert_allclose(back.scenarios.errors, inst.scenarios.errors)
        np.testing.assert_allclose(back.da_curve.prices, inst.da_curve.prices)
        assert back.beta == inst.beta and back.alpha == inst.alpha
        assert solve(build_milp(back)).objective == pytest.approx(
            solve(build_milp(inst)).objective, abs=1e-9
        )

    def test_default_bounds(self):
        lo, hi = default_volume_bounds(np.array([1.0, -4.0, 2.0]))
        assert np.all(lo == -12.0) and np.all(hi == 12.0)
