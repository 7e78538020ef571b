"""Core half-hourly load types, aggregation, and settlement transforms.

Time is an abstract global half-hour counter: period ``t`` belongs to day
``t // 48`` and week ``t // 336``.  No timezone or clock-change handling is
attempted; all data here is synthetic or pre-aligned.

Every table dpmeter reads or writes goes through ``write_csv`` and
``read_csv``: one dialect with ``\\n`` line ends, ``repr`` floats and an
empty cell for ``None``, and one check each for missing columns and an
empty table.
"""

from __future__ import annotations

import csv
import math
import numbers
from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from .privacy import PrivacyParams

PERIODS_PER_DAY = 48
PERIODS_PER_WEEK = 7 * PERIODS_PER_DAY  # 336 half-hour slots


def _freeze(values, dtype=float) -> np.ndarray:
    """Copy into a read-only array so dataclass instances stay immutable."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_fields(obj, integers: Iterable[str] = (), finite: Iterable[str] = ()) -> None:
    """Raise ``ValueError`` unless each field of ``obj`` named in
    ``integers`` is an integer, not a ``bool`` (a tuple or list field: each
    of its entries), and each field named in ``finite`` is a finite number."""
    for name in integers:
        value = getattr(obj, name)
        for v in value if isinstance(value, (tuple, list)) else (value,):
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
    for name in finite:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{name} must be finite")


def week_of_year(t: int) -> int:
    """Week-of-year label in 1..53 for a global period index."""
    return (t // PERIODS_PER_WEEK) % 53 + 1


def day_of_week(t: int) -> int:
    """Day-of-week label in 1..7 for a global period index."""
    return (t // PERIODS_PER_DAY) % 7 + 1


def settlement_period(t: int) -> int:
    """Half-hour-of-day label in 1..48 for a global period index."""
    return t % PERIODS_PER_DAY + 1


def slot_of_week(t: int) -> int:
    """Half-hour-of-week slot in 0..335 for a global period index."""
    return t % PERIODS_PER_WEEK


@dataclass(frozen=True)
class LoadSeries:
    """Energy readings in kWh per 30-minute period for a single meter.

    ``start`` is the global half-hour index of the first reading.  Values
    may be negative: net load behind PV or a battery can export.
    """

    meter_id: str
    start: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("LoadSeries needs a non-empty 1-D value array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"non-finite readings in meter {self.meter_id!r}")
        if self.start < 0:
            raise ValueError("start period index must be >= 0")

    def __len__(self) -> int:
        return self.values.size

    @property
    def end(self) -> int:
        """One past the last global period index covered."""
        return self.start + self.values.size


@dataclass(frozen=True)
class MeterPanel:
    """A time-aligned collection of meter series; the universe over which
    sensitivity and aggregation are computed."""

    meters: tuple[LoadSeries, ...]

    def __post_init__(self):
        object.__setattr__(self, "meters", tuple(self.meters))
        if not self.meters:
            raise ValueError("panel needs at least one meter")
        first = self.meters[0]
        for m in self.meters[1:]:
            if m.start != first.start or len(m) != len(first):
                raise ValueError("all meter series must share start and length")

    @property
    def n_meters(self) -> int:
        return len(self.meters)

    @property
    def start(self) -> int:
        return self.meters[0].start

    @property
    def n_periods(self) -> int:
        return len(self.meters[0])

    def matrix(self) -> np.ndarray:
        """Stacked readings, shape (n_meters, n_periods)."""
        return np.vstack([m.values for m in self.meters])

    def subset(self, meter_ids: Iterable[str]) -> "MeterPanel":
        wanted = set(meter_ids)
        picked = tuple(m for m in self.meters if m.meter_id in wanted)
        missing = wanted - {m.meter_id for m in picked}
        if missing:
            raise KeyError(f"unknown meter ids: {sorted(missing)}")
        return MeterPanel(picked)


@dataclass(frozen=True)
class DlcProfile:
    """Mean/std of the normalized load shape per half-hour-of-week slot.

    ``mu[w]`` is the average fraction of a week's total energy consumed in
    slot ``w``; ``sigma[w]`` the sample standard deviation of that fraction
    across weeks.
    """

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", _freeze(self.mu))
        object.__setattr__(self, "sigma", _freeze(self.sigma))
        if self.mu.shape != (PERIODS_PER_WEEK,) or self.sigma.shape != (PERIODS_PER_WEEK,):
            raise ValueError(f"profiles must have exactly {PERIODS_PER_WEEK} slots")
        if np.any(self.sigma < 0):
            raise ValueError("sigma must be elementwise >= 0")


NHHS = "nhhs"
HHS_DLC_SYS = "hhs-dlcsys"
HHS_EHH = "hhs-ehh"
HHS_DDP = "hhs-ddp"

_SCHEME_KINDS = (NHHS, HHS_DLC_SYS, HHS_EHH, HHS_DDP)


@dataclass(frozen=True)
class SettlementScheme:
    """One of the four data-availability schemes.

    ``nhhs`` settles on daily energy spread by the system load shape; the
    three half-hourly variants settle on metered half-hourly load but differ
    in what the forecaster may see (system shape only, the true aggregate,
    or a noised aggregate carrying ``privacy`` parameters).
    """

    kind: str
    privacy: "PrivacyParams | None" = None

    def __post_init__(self):
        if self.kind not in _SCHEME_KINDS:
            raise ValueError(f"unknown scheme {self.kind!r}; expected one of {_SCHEME_KINDS}")
        if self.kind == HHS_DDP and self.privacy is None:
            raise ValueError("hhs-ddp scheme requires privacy parameters")
        if self.kind != HHS_DDP and self.privacy is not None:
            raise ValueError(f"scheme {self.kind!r} does not take privacy parameters")

    @classmethod
    def nhhs(cls) -> "SettlementScheme":
        return cls(NHHS)

    @classmethod
    def hhs_dlc_sys(cls) -> "SettlementScheme":
        return cls(HHS_DLC_SYS)

    @classmethod
    def hhs_ehh(cls) -> "SettlementScheme":
        return cls(HHS_EHH)

    @classmethod
    def hhs_ddp(cls, privacy: "PrivacyParams") -> "SettlementScheme":
        return cls(HHS_DDP, privacy)

    @property
    def label(self) -> str:
        if self.kind == HHS_DDP:
            return f"hhs-ddp(eps={self.privacy.epsilon:g},gamma={self.privacy.gamma:g})"
        return self.kind


def aggregate_panel(panel: MeterPanel) -> LoadSeries:
    """Columnwise sum of all meters: the load the LSE must procure for."""
    total = panel.matrix().sum(axis=0)
    return LoadSeries("aggregate", panel.start, total)


def daily_energy(series: LoadSeries) -> np.ndarray:
    """Daily kWh totals; the series must cover whole days."""
    n = len(series)
    if n % PERIODS_PER_DAY != 0:
        raise ValueError(f"series length {n} is not a whole number of days")
    return series.values.reshape(-1, PERIODS_PER_DAY).sum(axis=1)


def compute_dlc(panel: MeterPanel) -> DlcProfile:
    """Weekly-normalized aggregate load shape with inter-week variability.

    Each whole week of the aggregate is divided by its total energy, giving
    a fraction per half-hour-of-week slot; ``mu`` and ``sigma`` are the mean
    and sample standard deviation of those fractions across weeks.
    """
    agg = aggregate_panel(panel)
    n = len(agg)
    if n % PERIODS_PER_WEEK != 0 or n < 2 * PERIODS_PER_WEEK:
        raise ValueError("panel must span at least two whole weeks")
    weeks = agg.values.reshape(-1, PERIODS_PER_WEEK)
    totals = weeks.sum(axis=1)
    if np.any(totals <= 0):
        bad = int(np.argmax(totals <= 0))
        raise ValueError(f"week {bad} has non-positive total energy; cannot normalize")
    shares = weeks / totals[:, None]
    # map block position to absolute half-hour-of-week slot
    offset = slot_of_week(agg.start)
    if offset:
        shares = np.roll(shares, offset, axis=1)
    mu = shares.mean(axis=0)
    sigma = shares.std(axis=0, ddof=1)
    return DlcProfile(mu, sigma)


def settled_load(
    scheme: SettlementScheme, actual_hh: LoadSeries, dlc_sys: DlcProfile
) -> LoadSeries:
    """Volume the LSE is settled on under ``scheme``.

    Half-hourly schemes settle on the metered series unchanged.  Under
    ``nhhs`` each day's total energy is spread across its 48 slots in
    proportion to the system profile, renormalized per day so daily totals
    are preserved exactly.
    """
    if scheme.kind != NHHS:
        return actual_hh
    spread = _spread(daily_energy(actual_hh), actual_hh.start, dlc_sys)
    return LoadSeries("settled-nhhs", actual_hh.start, spread)


def spread_daily(
    daily_kwh: Sequence[float], start: int, dlc: DlcProfile
) -> LoadSeries:
    """Expand daily energies to half-hourly values via a load shape.

    Same per-day renormalization as NHHS settlement; used by the daily
    forecasting pipeline to produce half-hourly forecasts.
    """
    return LoadSeries("daily-spread", start, _spread(daily_kwh, start, dlc))


def _spread(daily_kwh, start: int, dlc: DlcProfile) -> np.ndarray:
    """Each day's energy shared over its slots by ``dlc.mu``, renormalized per day."""
    daily_kwh = np.asarray(daily_kwh, dtype=float)
    slots = (start + np.arange(daily_kwh.size * PERIODS_PER_DAY)) % PERIODS_PER_WEEK
    weights = dlc.mu[slots].reshape(-1, PERIODS_PER_DAY)
    wsum = weights.sum(axis=1, keepdims=True)
    if np.any(wsum <= 0):
        bad = int(np.argmax(wsum[:, 0] <= 0))
        raise ValueError(f"profile has non-positive mass on day {bad}")
    return (daily_kwh[:, None] * weights / wsum).ravel()


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows``: ``None`` is an empty cell, a float
    (``np.floating`` included) its ``repr``, and any other cell as ``csv``
    writes it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def read_csv(path, what: str, columns: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """The rows of a table with a header naming every one of ``columns``,
    each as the tuple of those columns' cells in ``columns`` order.

    The columns are looked up in the header once (the last of a repeated
    name), and rows are yielded as they are read, so a large meter file is
    never held all at once.  Blank lines are skipped.  A missing column
    raises ``ValueError`` before the first row, a row too short to hold
    every column when it is read, and an empty table once the rows run out.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        position = {name: i for i, name in enumerate(header)}
        missing = [c for c in columns if c not in position]
        if missing:
            raise ValueError(f"{what} CSV lacks columns {missing}")
        index = [position[c] for c in columns]
        pick = itemgetter(*index) if len(index) > 1 else lambda row, i=index[0]: (row[i],)
        empty = True
        for row in reader:
            try:
                cells = pick(row)
            except IndexError:
                if not row:
                    continue
                raise ValueError(
                    f"{what} CSV line {reader.line_num} has {len(row)} of {len(header)} cells"
                ) from None
            empty = False
            yield cells
    if empty:
        raise ValueError(f"{what} CSV contains no rows")


def read_meter_csv(path) -> MeterPanel:
    """Load a panel from ``meter_id,period_index,kwh`` rows.

    Rows may arrive in any order but every meter must cover the full
    common period range; a missing (meter, period) pair is a hard error.
    The columns are parsed into arrays and placed by one stable sort, by
    meter and then period; both checks run on the sorted arrays.
    """
    codes: dict[str, int] = {}  # meter id -> code, in order of first sight
    meter, period, kwh = array("q"), array("q"), array("d")
    rows = read_csv(path, "meter", ["meter_id", "period_index", "kwh"])
    for meter_id, period_index, value in rows:
        meter.append(codes.setdefault(meter_id, len(codes)))
        period.append(int(period_index))
        kwh.append(float(value))
    ids = sorted(codes)
    rank = np.empty(len(ids), dtype=np.int64)
    rank[[codes[m] for m in ids]] = np.arange(len(ids))
    meter_rank = rank[np.frombuffer(meter, dtype=np.int64)]
    order = np.lexsort((np.frombuffer(period, dtype=np.int64), meter_rank))
    meter_rank, period = meter_rank[order], np.frombuffer(period, dtype=np.int64)[order]
    dup = np.flatnonzero((meter_rank[1:] == meter_rank[:-1]) & (period[1:] == period[:-1]))
    if dup.size:
        i = dup[0]
        raise ValueError(f"duplicate reading for meter {ids[meter_rank[i]]!r} period {period[i]}")
    start, end = int(period.min()), int(period.max()) + 1
    short = np.flatnonzero(np.bincount(meter_rank, minlength=len(ids)) != end - start)
    if short.size:
        m = short[0]
        missing = np.setdiff1d(np.arange(start, end), period[meter_rank == m])[:5].tolist()
        raise ValueError(
            f"meter {ids[m]!r} is missing periods (first few: {missing}); "
            "panels must be 100% complete"
        )
    values = np.frombuffer(kwh)[order].reshape(len(ids), end - start)
    return MeterPanel(tuple(LoadSeries(mid, start, v) for mid, v in zip(ids, values)))


def write_meter_csv(panel: MeterPanel, path) -> None:
    write_csv(
        path,
        ["meter_id", "period_index", "kwh"],
        ([m.meter_id, t, v] for m in panel.meters for t, v in enumerate(m.values, m.start)),
    )
