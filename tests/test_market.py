"""Price-curve construction, bracket lookup, and the tie-break rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmeter.market import (
    PriceCurve,
    build_curve,
    bracket_index,
    bracket_indices,
    read_ladder_csv,
)


class TestBuildCurve:
    def test_single_bid(self):
        curve = build_curve([(100.0, 50.0)], delta=10.0)
        assert curve.n_levels == 10
        np.testing.assert_array_equal(curve.prices, 50.0)
        np.testing.assert_allclose(curve.demand_levels, 10.0 * np.arange(1, 11))

    def test_two_bids_step(self):
        curve = build_curve([(50.0, 40.0), (50.0, 60.0)], delta=50.0)
        np.testing.assert_array_equal(curve.demand_levels, [50.0, 100.0])
        np.testing.assert_array_equal(curve.prices, [40.0, 60.0])

    def test_left_continuous_at_breakpoint(self):
        # level exactly at a cumulative breakpoint takes that block's price
        curve = build_curve([(30.0, 10.0), (30.0, 20.0), (40.0, 35.0)], delta=30.0)
        np.testing.assert_array_equal(curve.demand_levels, [30.0, 60.0, 90.0])
        np.testing.assert_array_equal(curve.prices, [10.0, 20.0, 35.0])

    def test_matches_searchsorted_oracle(self):
        rng = np.random.default_rng(0)
        vols = rng.uniform(5, 30, 12)
        prices = np.sort(rng.uniform(10, 90, 12))
        curve = build_curve(list(zip(vols, prices)), delta=7.0)
        cum = np.cumsum(vols)
        for level, price in zip(curve.demand_levels, curve.prices):
            k = next(i for i, c in enumerate(cum) if level <= c + 1e-12)
            assert price == prices[k]

    def test_decreasing_ladder_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            build_curve([(10.0, 50.0), (10.0, 40.0)], delta=5.0)

    @pytest.mark.parametrize("delta", [0.0, -5.0, float("inf"), float("nan")])
    def test_bad_spacing_rejected(self, delta):
        with pytest.raises(ValueError, match="spacing must be finite and > 0"):
            build_curve([(10.0, 50.0)], delta=delta)
        with pytest.raises(ValueError, match="spacing must be finite and > 0"):
            PriceCurve(np.array([5.0]), np.array([50.0]), delta)

    def test_nonuniform_levels_rejected(self):
        with pytest.raises(ValueError):
            PriceCurve(np.array([0.0, 1.0, 2.5]), np.zeros(3), 1.0)


class TestPriceAt:
    def curve(self):
        return PriceCurve(np.array([10.0, 20.0, 30.0]), np.array([5.0, 7.0, 11.0]), 10.0)

    def test_exact_level(self):
        curve = self.curve()
        for level, price in [(10.0, 5.0), (20.0, 7.0), (30.0, 11.0)]:
            assert curve.prices[bracket_index(curve, level)] == price

    def test_midpoint_tie_goes_lower(self):
        curve = self.curve()
        assert curve.prices[bracket_index(curve, 15.0)] == 5.0
        assert curve.prices[bracket_index(curve, 25.0)] == 7.0

    def test_range_edges(self):
        curve = self.curve()
        assert curve.prices[bracket_index(curve, 5.0)] == 5.0
        assert curve.prices[bracket_index(curve, 35.0)] == 11.0
        for demand in (4.9, 35.1):
            with pytest.raises(ValueError, match="outside"):
                bracket_index(curve, demand)

    def test_matches_argmin_scan(self):
        rng = np.random.default_rng(1)
        curve = PriceCurve(
            -40.0 + 8.0 * np.arange(12), np.sort(rng.uniform(0, 100, 12)), 8.0
        )
        for demand in rng.uniform(curve.lo, curve.hi, 1000):
            got = bracket_index(curve, demand)
            dists = np.abs(curve.demand_levels - demand)
            best = np.flatnonzero(dists <= dists.min() + 1e-12)[0]  # ties: lower
            assert got == best

    def test_nondecreasing_in_demand(self):
        curve = self.curve()
        demands = np.linspace(curve.lo, curve.hi, 200)
        prices = curve.prices[bracket_indices(curve, demands)]
        assert np.all(np.diff(prices) >= 0)


class TestBracketIndices:
    def curve(self):
        return PriceCurve(-40.0 + 8.0 * np.arange(12), np.arange(12.0), 8.0)

    def test_matches_nearest_level(self):
        rng = np.random.default_rng(2)
        curve = self.curve()
        boundaries = curve.demand_levels[:-1] + curve.delta / 2.0  # exact in binary
        demand = np.concatenate(
            [
                rng.uniform(curve.lo, curve.hi, 2000),
                boundaries,
                curve.demand_levels,
                [curve.lo, curve.hi],
            ]
        )
        rng.shuffle(demand)
        got = bracket_indices(curve, demand)
        dists = np.abs(curve.demand_levels[None, :] - demand[:, None])
        # the first level within round-off of the nearest: ties go lower
        want = np.argmax(dists <= dists.min(axis=1, keepdims=True) + 1e-12, axis=1)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert got[demand == curve.lo].tolist() == [0]
        assert got[demand == curve.hi].tolist() == [curve.n_levels - 1]
        assert np.array_equal(np.sort(got[np.isin(demand, boundaries)]), np.arange(11))
        assert [bracket_index(curve, d) for d in demand] == want.tolist()
        grid = bracket_indices(curve, demand[:6].reshape(2, 3))
        assert np.array_equal(grid, want[:6].reshape(2, 3))

    def test_one_off_grid_element_raises(self):
        curve = self.curve()
        demand = np.linspace(curve.lo, curve.hi, 50)
        for bad in (curve.hi + 0.01, curve.lo - 0.01, np.nan):
            off = demand.copy()
            off[17] = bad
            with pytest.raises(ValueError, match="outside"):
                bracket_indices(curve, off)


class TestLadderIo:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "ladder.csv"
        path.write_text("volume_mwh,price\n50,40\n50,60\n")
        ladder = read_ladder_csv(path)
        assert ladder == [(50.0, 40.0), (50.0, 60.0)]
        curve = build_curve(ladder, delta=25.0)
        assert curve.n_levels == 4


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 10))
def test_build_curve_reproduces_breakpoint_prices(seed, n):
    rng = np.random.default_rng(seed)
    vols = rng.uniform(1, 20, n)
    prices = np.sort(rng.uniform(1, 100, n))
    cum = np.cumsum(vols)
    delta = float(cum[-1] / rng.integers(1, 3 * n + 1))
    curve = build_curve(list(zip(vols, prices)), delta)
    # the marginal price at each original breakpoint must be recoverable
    for c, p in zip(cum, prices):
        if curve.lo <= c <= curve.hi:
            idx = bracket_index(curve, c)
            level = curve.demand_levels[idx]
            k = np.searchsorted(cum, level, side="left")
            assert curve.prices[idx] == prices[min(k, n - 1)]
