"""Piecewise-linear day-ahead and balancing price curves.

A curve discretizes total market demand onto a uniform grid; each level
carries the marginal price of the supply bracket containing it.  The LSE is
price-making: its own volume moves the system along the curve, which the
procurement model captures with binary bracket selectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import _freeze, read_csv

_SPACING_TOL = 1e-9


@dataclass(frozen=True)
class PriceCurve:
    """Uniformly spaced demand levels with a price per level."""

    demand_levels: np.ndarray  # MWh, strictly increasing, spacing == delta
    prices: np.ndarray  # currency/MWh
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "demand_levels", _freeze(self.demand_levels))
        object.__setattr__(self, "prices", _freeze(self.prices))
        if self.demand_levels.ndim != 1 or self.demand_levels.size == 0:
            raise ValueError("curve needs at least one demand level")
        if self.prices.shape != self.demand_levels.shape:
            raise ValueError("one price per demand level required")
        if not np.isfinite(self.demand_levels).all():
            raise ValueError("demand levels must be finite")
        if not np.isfinite(self.prices).all():
            raise ValueError("prices must be finite")
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ValueError("level spacing must be finite and > 0")
        gaps = np.diff(self.demand_levels)
        if np.any(np.abs(gaps - self.delta) > _SPACING_TOL):
            raise ValueError("demand levels must be uniformly spaced by delta")

    @property
    def n_levels(self) -> int:
        return self.demand_levels.size

    @property
    def lo(self) -> float:
        """Lowest demand covered (half a spacing below the first level)."""
        return float(self.demand_levels[0] - self.delta / 2.0)

    @property
    def hi(self) -> float:
        """Highest demand covered (half a spacing above the last level)."""
        return float(self.demand_levels[-1] + self.delta / 2.0)


def build_curve(bid_ladder, delta: float) -> PriceCurve:
    """Resample a cumulative supply stack onto a uniform grid.

    ``bid_ladder`` is a sequence of ``(volume, price)`` blocks with prices
    non-decreasing in cumulative volume.  Each grid level gets the marginal
    price of the bracket containing it (left-continuous step lookup).
    """
    if not (delta > 0 and math.isfinite(delta)):
        raise ValueError(f"ladder spacing must be finite and > 0, got {delta}")
    ladder = [(float(v), float(p)) for v, p in bid_ladder]
    if not ladder:
        raise ValueError("bid ladder is empty")
    if any(v <= 0 for v, _ in ladder):
        raise ValueError("bid volumes must be > 0")
    prices = [p for _, p in ladder]
    if any(b < a for a, b in zip(prices, prices[1:])):
        raise ValueError("bid prices must be non-decreasing in volume (supply stack)")
    cum = np.cumsum([v for v, _ in ladder])
    total = cum[-1]
    n_levels = int(math.floor(total / delta + 1e-12))
    if n_levels < 1:
        raise ValueError(f"spacing {delta} exceeds total ladder volume {total}")
    levels = delta * np.arange(1, n_levels + 1)
    # the top level may overshoot the ladder total by rounding; clamp
    idx = np.minimum(np.searchsorted(cum, levels, side="left"), len(prices) - 1)
    return PriceCurve(levels, np.asarray(prices)[idx], delta)


def bracket_indices(curve: PriceCurve, demand) -> np.ndarray:
    """Index of the unique level within half a spacing of each ``demand``.

    Exact half-spacing boundaries resolve to the lower index.  Any demand
    outside the covered range (or NaN) is an error; the caller must widen
    the grid.
    """
    demand = np.asarray(demand, dtype=float)
    r = (demand - curve.demand_levels[0]) / curve.delta
    # fmin/fmax send NaN to an end level, where the range check rejects it
    idx = np.fmax(np.fmin(np.ceil(r - 0.5), curve.n_levels - 1), 0).astype(np.int64)
    off = ~(np.abs(curve.demand_levels[idx] - demand) <= curve.delta / 2.0 + _SPACING_TOL)
    if off.any():
        bad = float(demand[off].flat[0])
        raise ValueError(f"demand {bad} outside curve range [{curve.lo}, {curve.hi}]")
    return idx


def bracket_index(curve: PriceCurve, demand: float) -> int:
    """Scalar form of ``bracket_indices``."""
    return int(bracket_indices(curve, demand))


@dataclass(frozen=True)
class SystemExogenous:
    """Demand the rest of the system brings to each market.

    ``d_sys_base[t]`` is total day-ahead system demand excluding the LSE;
    ``d_imb_base[s, t]`` the signed system imbalance per scenario.
    """

    d_sys_base: np.ndarray  # (T,)
    d_imb_base: np.ndarray  # (S, T)

    def __post_init__(self):
        object.__setattr__(self, "d_sys_base", _freeze(self.d_sys_base))
        object.__setattr__(self, "d_imb_base", _freeze(self.d_imb_base))
        if self.d_sys_base.ndim != 1:
            raise ValueError("d_sys_base must be 1-D over periods")
        if self.d_imb_base.ndim != 2 or self.d_imb_base.shape[1] != self.d_sys_base.size:
            raise ValueError("d_imb_base must be (S, T) matching d_sys_base")
        if not np.isfinite(self.d_sys_base).all():
            raise ValueError("d_sys_base must be finite")
        if not np.isfinite(self.d_imb_base).all():
            raise ValueError("d_imb_base must be finite")


def read_ladder_csv(path) -> list[tuple[float, float]]:
    """Read ``volume_mwh,price`` bid blocks."""
    rows = read_csv(path, "ladder", ["volume_mwh", "price"])
    return [(float(volume), float(price)) for volume, price in rows]
