"""Synthetic meter panels, k-means consumer grouping, and group sampling.

Meters draw from a small archetype library (regular double-peak, flat,
evening-heavy) with weekend shifts, weekly modulation, and multiplicative
lognormal noise.  A configurable fraction receive a PV generation bell
(net load can go negative) and an independent fraction receive stochastic
evening EV charging blocks, which is what drives group load shapes apart
from the system average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    PERIODS_PER_DAY,
    PERIODS_PER_WEEK,
    DlcProfile,
    LoadSeries,
    MeterPanel,
    _check_fields,
    compute_dlc,
    write_csv,
)
from .metrics import KldScore, kld_profiles

_ARCHETYPES = ("regular", "flat", "evening")
_ARCHETYPE_WEIGHTS = (0.45, 0.3, 0.25)


@dataclass(frozen=True)
class SynthConfig:
    n_meters: int = 200
    n_weeks: int = 8
    base_level: float = 0.12  # kWh per half-hour floor
    morning_peak: float = 0.35
    evening_peak: float = 0.65
    weekend_shift_hours: float = 2.0
    noise_level: float = 0.25  # lognormal sigma per period
    pv_fraction: float = 0.5
    ev_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        _check_fields(
            self,
            integers=("n_meters", "n_weeks", "seed"),
            reals=(
                "base_level", "morning_peak", "evening_peak", "weekend_shift_hours",
                "noise_level", "pv_fraction", "ev_fraction",
            ),
        )
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.n_meters < 1:
            raise ValueError("need at least one meter")
        if self.n_weeks < 4:
            raise ValueError("need at least four weeks")
        for frac in (self.pv_fraction, self.ev_fraction):
            if not 0.0 <= frac <= 1.0:
                raise ValueError("fractions must lie in [0, 1]")
        if self.noise_level < 0:
            raise ValueError("noise level must be >= 0")


@dataclass(frozen=True)
class ConsumerGroup:
    """A subset of meters with its load shape and divergence from system."""

    meter_ids: tuple[str, ...]
    label: str
    profile: DlcProfile
    kld_vs_system: KldScore

    def __post_init__(self):
        if not self.meter_ids:
            raise ValueError("group must contain at least one meter")

    def panel(self, source: MeterPanel) -> MeterPanel:
        return source.subset(self.meter_ids)


def _gauss_bump(slots: np.ndarray, center: float, width: float) -> np.ndarray:
    return np.exp(-0.5 * ((slots - center) / width) ** 2)


def _base_day(cfg: SynthConfig, archetype: str, weekend: bool, jitter: float) -> np.ndarray:
    slots = np.arange(PERIODS_PER_DAY, dtype=float)
    shift = 2.0 * cfg.weekend_shift_hours if weekend else 0.0  # slots are half hours
    morning = cfg.morning_peak * _gauss_bump(slots, 16.0 + jitter + shift, 2.5)
    evening = cfg.evening_peak * _gauss_bump(slots, 37.0 + jitter + shift, 3.5)
    if archetype == "flat":
        morning, evening = 0.25 * morning, 0.25 * evening
    elif archetype == "evening":
        morning = 0.3 * morning
        evening = 1.8 * cfg.evening_peak * _gauss_bump(slots, 41.0 + jitter + shift, 3.0)
    day = cfg.base_level + morning + evening
    if weekend:
        day = day * 1.08
    return day


def generate_panel(cfg: SynthConfig) -> MeterPanel:
    """Deterministic synthetic panel; same seed gives an identical panel."""
    rng = np.random.default_rng(cfg.seed)
    n_days = 7 * cfg.n_weeks
    n = cfg.n_weeks * PERIODS_PER_WEEK
    archetypes = rng.choice(len(_ARCHETYPES), size=cfg.n_meters, p=_ARCHETYPE_WEIGHTS)
    scales = rng.lognormal(0.0, 0.3, cfg.n_meters)
    jitters = rng.normal(0.0, 1.2, cfg.n_meters)
    n_pv = round(cfg.pv_fraction * cfg.n_meters)
    n_ev = round(cfg.ev_fraction * cfg.n_meters)
    pv_set = set(rng.choice(cfg.n_meters, size=n_pv, replace=False).tolist())
    ev_set = set(rng.choice(cfg.n_meters, size=n_ev, replace=False).tolist())

    meters = []
    width = len(str(cfg.n_meters - 1))
    for i in range(cfg.n_meters):
        arch = _ARCHETYPES[archetypes[i]]
        weekday_day = _base_day(cfg, arch, weekend=False, jitter=jitters[i])
        weekend_day = _base_day(cfg, arch, weekend=True, jitter=jitters[i])
        days = [weekend_day if (d % 7) in (5, 6) else weekday_day for d in range(n_days)]
        values = np.concatenate(days) * scales[i]
        # slow week-to-week modulation with a meter-specific phase
        weeks = np.arange(n) / PERIODS_PER_WEEK
        phase = rng.uniform(0, 2 * math.pi)
        values = values * (1.0 + 0.08 * np.sin(2 * math.pi * weeks / cfg.n_weeks + phase))
        if cfg.noise_level > 0:
            mu = -0.5 * cfg.noise_level**2  # unit-mean lognormal
            values = values * rng.lognormal(mu, cfg.noise_level, n)
        if i in pv_set:
            amp = rng.uniform(0.5, 1.2) * scales[i]
            bell = amp * _gauss_bump(np.arange(n) % PERIODS_PER_DAY, 24.0, 4.0)
            # keep weekly energy positive so load-shape normalization stays
            # defined for any group containing this meter
            weekly_load = values.reshape(cfg.n_weeks, -1).sum(axis=1)
            weekly_bell = bell.reshape(cfg.n_weeks, -1).sum(axis=1)
            cap = 0.7 * float((weekly_load / weekly_bell).min())
            values = values - min(1.0, cap) * bell
        if i in ev_set:
            power_kw = rng.uniform(1.4, 3.6)
            for d in range(n_days):
                if rng.random() < 0.35:
                    start = d * PERIODS_PER_DAY + int(rng.integers(40, 46))
                    length = int(rng.integers(4, 9))
                    end = min(start + length, n)
                    values[start:end] += power_kw * 0.5
        meters.append(LoadSeries(f"m{i:0{width}d}", 0, values))
    return MeterPanel(tuple(meters))


def _meter_features(panel: MeterPanel) -> np.ndarray:
    """Average weekly profile per meter, normalized by its absolute mass."""
    m = panel.matrix()
    weekly = m.reshape(panel.n_meters, -1, PERIODS_PER_WEEK).mean(axis=1)
    mass = np.abs(weekly).sum(axis=1, keepdims=True)
    mass = np.where(mass < 1e-12, 1.0, mass)
    return weekly / mass


def _farthest_point(features: np.ndarray, centers: list[np.ndarray]) -> int:
    dists = np.min(
        [((features - c[None, :]) ** 2).sum(axis=1) for c in centers], axis=0
    )
    return int(np.argmax(dists))


def kmeans_groups(panel: MeterPanel, k: int, seed: int) -> list[ConsumerGroup]:
    """Lloyd iterations over average weekly profiles, groups sorted by KLD.

    Seeding picks the first center at random and the rest greedily at the
    farthest point, so a fixed seed fully determines the clustering.
    Returned groups are labelled A, B, ... in ascending divergence from
    the whole-panel profile.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > panel.n_meters:
        raise ValueError(f"k={k} exceeds the {panel.n_meters} meters available")
    features = _meter_features(panel)
    rng = np.random.default_rng(seed)
    centers = [features[int(rng.integers(panel.n_meters))]]
    while len(centers) < k:
        centers.append(features[_farthest_point(features, centers)])
    centroids = np.vstack(centers)

    labels = np.full(panel.n_meters, -1)
    for _ in range(300):
        dists = ((features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dists, axis=1)
        for c in range(k):
            if not np.any(new_labels == c):
                far = _farthest_point(features, [centroids[j] for j in range(k) if j != c])
                centroids[c] = features[far]
                new_labels[far] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centroids[c] = features[labels == c].mean(axis=0)

    system = compute_dlc(panel)
    groups = []
    for c in range(k):
        ids = tuple(panel.meters[i].meter_id for i in np.flatnonzero(labels == c))
        profile = compute_dlc(panel.subset(ids))
        groups.append((kld_profiles(profile, system), ids, profile))
    groups.sort(key=lambda g: g[0].value)
    return [
        ConsumerGroup(ids, chr(ord("A") + i) if k <= 26 else f"g{i}", profile, kld)
        for i, (kld, ids, profile) in enumerate(groups)
    ]


def sample_group(panel: MeterPanel, share: float, seed: int) -> ConsumerGroup:
    """Uniform random subset of ``ceil(share * N)`` meters with its KLD."""
    if not 0.0 < share <= 1.0:
        raise ValueError("share must lie in (0, 1]")
    size = math.ceil(share * panel.n_meters)
    rng = np.random.default_rng(seed)
    picked = np.sort(rng.choice(panel.n_meters, size=size, replace=False))
    ids = tuple(panel.meters[i].meter_id for i in picked)
    profile = compute_dlc(panel.subset(ids))
    kld = kld_profiles(profile, compute_dlc(panel))
    return ConsumerGroup(ids, f"share={share:g}", profile, kld)


def write_group_csv(groups: list[ConsumerGroup], path) -> None:
    """Group manifest: ``meter_id,group``."""
    write_csv(path, ["meter_id", "group"], ([mid, g.label] for g in groups for mid in g.meter_ids))
