"""Core types, aggregation, DLC computation, settlement transforms, CSV io."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmeter.domain import (
    DlcProfile,
    LoadSeries,
    MeterPanel,
    SettlementScheme,
    aggregate_panel,
    compute_dlc,
    daily_energy,
    read_csv,
    read_meter_csv,
    settled_load,
    spread_daily,
    write_csv,
    write_meter_csv,
)
from dpmeter.privacy import PrivacyParams


def panel_from_rows(rows, start=0):
    return MeterPanel(
        tuple(LoadSeries(f"m{i}", start, np.asarray(r, float)) for i, r in enumerate(rows))
    )


class TestTypes:
    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            LoadSeries("x", 0, [])

    def test_values_read_only(self):
        s = LoadSeries("x", 0, [1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_misaligned_panel_rejected(self):
        with pytest.raises(ValueError):
            MeterPanel((LoadSeries("a", 0, [1.0]), LoadSeries("b", 1, [1.0])))

    def test_dlc_shape_enforced(self):
        with pytest.raises(ValueError):
            DlcProfile(np.ones(10), np.ones(10))
        with pytest.raises(ValueError):
            DlcProfile(np.ones(336) / 336, -np.ones(336))

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            SettlementScheme("hhs-ddp")
        with pytest.raises(ValueError):
            SettlementScheme("nhhs", PrivacyParams(1.0))
        s = SettlementScheme.hhs_ddp(PrivacyParams(0.25, 0.75))
        assert "0.25" in s.label


class TestAggregate:
    def test_componentwise_sum(self):
        agg = aggregate_panel(panel_from_rows([[1, 2], [3, 4]]))
        np.testing.assert_array_equal(agg.values, [4, 6])

    def test_single_meter_identity(self):
        agg = aggregate_panel(panel_from_rows([[5, -1]]))
        np.testing.assert_array_equal(agg.values, [5, -1])

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(100, 96))
        agg = aggregate_panel(panel_from_rows(rows))
        expected = [sum(rows[m][t] for m in range(100)) for t in range(96)]
        np.testing.assert_allclose(agg.values, expected, rtol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(10, 48))
        whole = aggregate_panel(panel_from_rows(rows)).values
        part = (
            aggregate_panel(panel_from_rows(rows[:4])).values
            + aggregate_panel(panel_from_rows(rows[4:])).values
        )
        np.testing.assert_allclose(whole, part, atol=1e-12)


class TestDailyEnergy:
    def test_ones(self):
        np.testing.assert_array_equal(daily_energy(LoadSeries("x", 0, np.ones(48))), [48])

    def test_alternating_cancels(self):
        vals = np.tile([1.0, -1.0], 48)
        np.testing.assert_array_equal(daily_energy(LoadSeries("x", 0, vals)), [0.0, 0.0])

    def test_matches_chunked_sum(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=7 * 48)
        got = daily_energy(LoadSeries("x", 0, vals))
        expected = [vals[48 * d : 48 * (d + 1)].sum() for d in range(7)]
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_partial_day_rejected(self):
        with pytest.raises(ValueError):
            daily_energy(LoadSeries("x", 0, np.ones(50)))


class TestComputeDlc:
    def test_identical_weeks_zero_sigma(self):
        week = np.abs(np.sin(np.arange(336))) + 0.1
        panel = panel_from_rows([np.tile(week, 3)])
        dlc = compute_dlc(panel)
        np.testing.assert_allclose(dlc.sigma, 0.0, atol=1e-15)
        np.testing.assert_allclose(dlc.mu, week / week.sum(), rtol=1e-12)

    def test_flat_load_uniform(self):
        panel = panel_from_rows([np.ones(2 * 336)])
        np.testing.assert_allclose(compute_dlc(panel).mu, 1.0 / 336, rtol=1e-12)

    def test_matches_per_week_normalization_oracle(self):
        rng = np.random.default_rng(3)
        rows = rng.uniform(0.1, 2.0, size=(5, 4 * 336))
        dlc = compute_dlc(panel_from_rows(rows))
        agg = rows.sum(axis=0)
        shares = np.array([agg[336 * w : 336 * (w + 1)] / agg[336 * w : 336 * (w + 1)].sum() for w in range(4)])
        np.testing.assert_allclose(dlc.mu, shares.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(dlc.sigma, shares.std(axis=0, ddof=1), rtol=1e-10)

    def test_mu_sums_to_one(self):
        rng = np.random.default_rng(4)
        rows = rng.uniform(0.05, 1.0, size=(3, 2 * 336))
        assert compute_dlc(panel_from_rows(rows)).mu.sum() == pytest.approx(1.0, abs=1e-9)

    def test_short_panel_rejected(self):
        with pytest.raises(ValueError):
            compute_dlc(panel_from_rows([np.ones(336)]))

    def test_nonpositive_week_rejected(self):
        rows = [np.concatenate([np.ones(336), -np.ones(336)])]
        with pytest.raises(ValueError, match="non-positive"):
            compute_dlc(panel_from_rows(rows))


def loop_spread(daily, start, mu):
    """The per-day loop that spread_daily and settled_load once ran; reference."""
    out = np.empty(len(daily) * 48)
    for d, e_day in enumerate(daily):
        weights = mu[(start + 48 * d + np.arange(48)) % 336]
        out[48 * d : 48 * (d + 1)] = e_day * weights / weights.sum()
    return out


class TestSettledLoad:
    def _dlc(self, mu=None):
        mu = np.full(336, 1.0 / 336) if mu is None else mu
        return DlcProfile(mu, np.zeros(336))

    def test_hhs_identity(self):
        series = LoadSeries("x", 0, np.arange(96, dtype=float))
        for scheme in (SettlementScheme.hhs_ehh(), SettlementScheme.hhs_dlc_sys()):
            assert settled_load(scheme, series, self._dlc()) is series

    def test_nhhs_flat_dlc(self):
        series = LoadSeries("x", 0, np.ones(48))
        out = settled_load(SettlementScheme.nhhs(), series, self._dlc())
        np.testing.assert_allclose(out.values, 1.0, rtol=1e-12)

    def test_nhhs_peaked_day_matches_manual_spread(self):
        rng = np.random.default_rng(5)
        mu = rng.uniform(0.5, 2.0, 336)
        mu /= mu.sum()
        vals = rng.uniform(0, 3, 96)
        series = LoadSeries("x", 0, vals)
        out = settled_load(SettlementScheme.nhhs(), series, self._dlc(mu))
        for d in range(2):
            day = vals[48 * d : 48 * (d + 1)]
            w = mu[48 * d : 48 * (d + 1)]
            np.testing.assert_allclose(
                out.values[48 * d : 48 * (d + 1)], day.sum() * w / w.sum(), rtol=1e-12
            )

    def test_nhhs_preserves_daily_totals(self):
        rng = np.random.default_rng(6)
        series = LoadSeries("x", 0, rng.uniform(0, 2, 7 * 48))
        out = settled_load(SettlementScheme.nhhs(), series, self._dlc())
        np.testing.assert_allclose(daily_energy(out), daily_energy(series), atol=1e-9)

    def test_spread_daily_length(self):
        out = spread_daily([10.0, 20.0], 336, self._dlc())
        assert len(out) == 96 and out.start == 336

    def test_spread_matches_per_day_loop_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            mu = rng.uniform(0.0, 2.0, 336)
            mu /= mu.sum()
            days, start = int(rng.integers(1, 16)), int(rng.integers(0, 2000))
            daily = rng.uniform(0, 500, days)
            out = spread_daily(daily, start, self._dlc(mu))
            np.testing.assert_array_equal(out.values, loop_spread(daily, start, mu))
            series = LoadSeries("x", start, rng.uniform(0, 3, 48 * days))
            settled = settled_load(SettlementScheme.nhhs(), series, self._dlc(mu))
            expected = loop_spread(daily_energy(series), start, mu)
            np.testing.assert_array_equal(settled.values, expected)

    def test_day_without_profile_mass_rejected(self):
        mu = np.full(336, 1.0 / 288)
        mu[48:96] = 0.0  # the second day of the week has no mass
        with pytest.raises(ValueError, match="non-positive mass on day 1"):
            spread_daily([10.0, 20.0, 30.0], 0, self._dlc(mu))
        series = LoadSeries("x", 336 + 48, np.ones(3 * 48))
        with pytest.raises(ValueError, match="non-positive mass on day 0"):
            settled_load(SettlementScheme.nhhs(), series, self._dlc(mu))


class TestMeterCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        panel = panel_from_rows(rng.normal(size=(3, 96)), start=48)
        path = tmp_path / "meters.csv"
        write_meter_csv(panel, path)
        back = read_meter_csv(path)
        assert back.n_meters == 3 and back.start == 48
        np.testing.assert_array_equal(back.matrix(), panel.matrix())

    def test_unsorted_rows_accepted(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "meter_id,period_index,kwh\na,1,2.0\nb,0,5.0\na,0,1.0\nb,1,6.0\n"
        )
        panel = read_meter_csv(path)
        np.testing.assert_array_equal(panel.matrix(), [[1.0, 2.0], [5.0, 6.0]])

    def test_missing_pair_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("meter_id,period_index,kwh\na,0,1.0\na,1,2.0\nb,0,5.0\n")
        with pytest.raises(ValueError, match="missing"):
            read_meter_csv(path)

    def test_duplicate_reading_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "meter_id,period_index,kwh\nb,0,5.0\na,0,1.0\nb,1,6.0\na,1,2.0\nb,1,7.0\n"
        )
        with pytest.raises(ValueError, match=r"^duplicate reading for meter 'b' period 1$"):
            read_meter_csv(path)

    def test_gap_rejected(self, tmp_path):
        # meter "b" skips periods 2 and 3 inside the common range 0..4
        rows = [f"a,{t},1.0" for t in range(5)] + [f"b,{t},1.0" for t in (4, 0, 1)]
        path = tmp_path / "m.csv"
        path.write_text("meter_id,period_index,kwh\n" + "\n".join(rows) + "\n")
        with pytest.raises(
            ValueError,
            match=r"^meter 'b' is missing periods \(first few: \[2, 3\]\); "
            r"panels must be 100% complete$",
        ):
            read_meter_csv(path)

    def test_shuffled_rows_read_as_written(self, tmp_path):
        rng = np.random.default_rng(11)
        panel = MeterPanel(tuple(
            LoadSeries(mid, 96, rng.normal(size=48)) for mid in ("m10", "m2", "a", "z")
        ))
        path = tmp_path / "m.csv"
        write_meter_csv(panel, path)
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header] + [rows[i] for i in rng.permutation(len(rows))]) + "\n")
        back = read_meter_csv(path)
        assert [m.meter_id for m in back.meters] == ["a", "m10", "m2", "z"]
        assert back.start == 96
        by_id = {m.meter_id: m.values for m in panel.meters}
        for m in back.meters:
            assert m.values.tobytes() == by_id[m.meter_id].tobytes()

    def test_comma_in_meter_id_round_trips(self, tmp_path):
        panel = MeterPanel((LoadSeries("flat 1, north", 0, np.array([0.1, 2.0])),))
        path = tmp_path / "m.csv"
        write_meter_csv(panel, path)
        back = read_meter_csv(path)
        assert back.meters[0].meter_id == "flat 1, north"
        np.testing.assert_array_equal(back.matrix(), panel.matrix())


class TestCsvDialect:
    def test_cell_rules(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c", "d"], [[None, np.float64(0.1), 3, "x"]])
        assert path.read_bytes() == b"a,b,c,d\n,0.1,3,x\n"

    def test_missing_columns_named_in_order(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("b\n1\n")
        with pytest.raises(ValueError, match=r"^thing CSV lacks columns \['c', 'a'\]$"):
            list(read_csv(path, "thing", ["c", "b", "a"]))
        assert list(read_csv(path, "thing", ["b"])) == [("1",)]

    def test_empty_table_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("b\n")
        with pytest.raises(ValueError, match="^thing CSV contains no rows$"):
            list(read_csv(path, "thing", ["b"]))

    def test_rows_follow_requested_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,2,3\n\n4,5,6\n")
        assert list(read_csv(path, "thing", ["c", "a"])) == [("3", "1"), ("6", "4")]
        assert list(read_csv(path, "thing", ["b"])) == [("2",), ("5",)]

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="^thing CSV line 3 has 2 of 3 cells$"):
            list(read_csv(path, "thing", ["c"]))
        assert list(read_csv(path, "thing", ["a", "b"])) == [("1", "2"), ("4", "5")]


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(2, 6),
    scale=st.floats(0.1, 10.0),
    seed=st.integers(0, 10_000),
)
def test_aggregate_scales_linearly(rows, scale, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(rows, 48))
    base = aggregate_panel(panel_from_rows(data)).values
    scaled = aggregate_panel(panel_from_rows(data * scale)).values
    np.testing.assert_allclose(scaled, base * scale, rtol=1e-9, atol=1e-12)
