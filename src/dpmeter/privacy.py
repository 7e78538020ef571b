"""Discounted differential privacy for aggregated meter readings.

The release mechanism adds Laplace noise scaled by the per-period global
sensitivity divided by ``epsilon * (1 - gamma)``; at ``gamma = 0`` this is
the plain Laplace mechanism.  A decentralized variant splits the same noise
into per-meter Gamma-difference shares whose sum is Laplace-distributed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import LoadSeries, MeterPanel, _freeze, aggregate_panel


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget ``epsilon`` and past-data discount rate ``gamma``."""

    epsilon: float
    gamma: float = 0.0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")


@dataclass(frozen=True)
class NoiseScale:
    """Laplace scale parameter in kWh for one release period."""

    b: float

    def __post_init__(self):
        if not self.b >= 0:
            raise ValueError("noise scale must be >= 0")


@dataclass(frozen=True)
class SensitivityProfile:
    """Per-period global sensitivity of the aggregate query, kWh."""

    delta_f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delta_f", _freeze(self.delta_f))
        if np.any(self.delta_f < 0):
            raise ValueError("sensitivities must be >= 0")


def global_sensitivity(panel: MeterPanel) -> SensitivityProfile:
    """Per-period range of individual loads divided by the meter count."""
    m = panel.matrix()
    delta = (m.max(axis=0) - m.min(axis=0)) / panel.n_meters
    return SensitivityProfile(delta)


def noise_scale(delta_f: float, params: PrivacyParams) -> NoiseScale:
    """Discounted Laplace scale ``delta_f / (epsilon * (1 - gamma))``."""
    if delta_f < 0:
        raise ValueError("sensitivity must be >= 0")
    return NoiseScale(delta_f / (params.epsilon * (1.0 - params.gamma)))


def laplace_noise(b: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Seedable Laplace(0, b) draws via the inverse CDF of a uniform.

    Uses ``u in (-1/2, 1/2)``, ``x = -b * sign(u) * ln(1 - 2|u|)`` so any
    deterministic uniform generator reproduces the stream.
    """
    if b < 0:
        raise ValueError("scale must be >= 0")
    u = rng.random(size) - 0.5
    # rng.random() is [0, 1); avoid the log(0) endpoint at u = -0.5
    u = np.where(u == -0.5, np.nextafter(-0.5, 0.0), u)
    return -b * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def privatize_aggregate(
    panel: MeterPanel, params: PrivacyParams, rng_seed: int
) -> LoadSeries:
    """Aggregate load plus independent per-period Laplace noise.

    Noise in period ``t`` is scaled by that period's own sensitivity.
    Negative outputs are legitimate (net load can be negative) and are not
    clipped.  Deterministic for a fixed seed.
    """
    agg = aggregate_panel(panel).values
    delta = global_sensitivity(panel).delta_f
    b = delta / (params.epsilon * (1.0 - params.gamma))
    rng = np.random.default_rng(rng_seed)
    noise = laplace_noise(1.0, agg.size, rng) * b
    return LoadSeries("aggregate-ddp", panel.start, agg + noise)


def gamma_noise_share(b: NoiseScale, n_meters: int, rng_seed: int) -> np.ndarray:
    """Per-meter noise shares whose sum is Laplace(0, b)-distributed.

    Each share is ``G1 - G2`` with ``G1, G2 ~ Gamma(1/n, scale=b)`` i.i.d.,
    so meters can add noise locally without a trusted aggregator.
    """
    if n_meters < 1:
        raise ValueError("need at least one meter")
    if not b.b > 0:
        raise ValueError("noise scale must be > 0 for decentralised shares")
    rng = np.random.default_rng(rng_seed)
    shape = 1.0 / n_meters
    g1 = rng.gamma(shape, b.b, size=n_meters)
    g2 = rng.gamma(shape, b.b, size=n_meters)
    return g1 - g2
