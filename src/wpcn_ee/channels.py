"""Random scenario generation: geometry, path loss, and small-scale fading.

Users are dropped uniformly on the line between the power station and
the information receiver, close to the station (the regime where energy
harvesting is worth anything).  The downlink sees Rician fading through
the strong line-of-sight to the nearby station; the uplink over the
long hop is Rayleigh.  Both fading powers are normalized to unit mean
so ref_gain * d^-alpha is the mean path gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .model import Scenario, SystemParams, UserChannel, _battery_vector, db_to_linear

_MAX_ATTEMPTS = 100  # admissibility redraws before generate_scenario gives up


@dataclass(frozen=True)
class GeometryConfig:
    """Placement and propagation parameters for random scenarios.

    K            number of users
    d_min_m      closest user distance to the power station, m
    d_max_m      farthest user distance, m
    d_rx_m       station-to-receiver distance, m (users lie inside)
    alpha        path loss exponent
    rician_K_dB  Rician K-factor of the downlink, dB
    ref_gain     path gain at 1 m (linear)
    seed         RNG seed
    """

    K: int
    d_min_m: float = 2.0
    d_max_m: float = 15.0
    d_rx_m: float = 300.0
    alpha: float = 2.8
    rician_K_dB: float = 7.0
    ref_gain: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if not 0.0 < self.d_min_m <= self.d_max_m:
            raise ValueError("need 0 < d_min_m <= d_max_m")
        if self.d_max_m >= self.d_rx_m:
            raise ValueError("users must lie strictly between station and receiver")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.ref_gain <= 0.0:
            raise ValueError("ref_gain must be positive")


def _draw_gains(rng: np.random.Generator, geo: GeometryConfig) -> tuple[np.ndarray, np.ndarray]:
    d = rng.uniform(geo.d_min_m, geo.d_max_m, size=geo.K)

    # Downlink: Rician with K-factor kappa, unit mean power.
    kappa = db_to_linear(geo.rician_K_dB)
    los = math.sqrt(kappa / (kappa + 1.0))
    scatter = math.sqrt(1.0 / (2.0 * (kappa + 1.0)))
    x = rng.standard_normal(geo.K)
    y = rng.standard_normal(geo.K)
    fade_dl = (los + scatter * x) ** 2 + (scatter * y) ** 2

    # Uplink: Rayleigh, unit mean power.
    xu = rng.standard_normal(geo.K)
    yu = rng.standard_normal(geo.K)
    fade_ul = 0.5 * (xu**2 + yu**2)

    h = geo.ref_gain * d ** (-geo.alpha) * fade_dl
    g = geo.ref_gain * (geo.d_rx_m - d) ** (-geo.alpha) * fade_ul
    return h, g


def generate_scenario(
    geo: GeometryConfig, params: SystemParams, *, Q: Iterable[float] | float = 0.0
) -> Scenario:
    """Draw one scenario; deterministic in geo.seed.

    Q is the initial battery energy, one value shared by every user or
    one per user; it is checked before the draw, and each user's channel
    is built once with its charge.  Draws violating the admissibility
    bound sum eta*h < 1/xi are rejected and redrawn (vanishingly rare at
    realistic gains), erroring out after _MAX_ATTEMPTS.
    """
    qs = _battery_vector(Q, geo.K)
    rng = np.random.default_rng(geo.seed)
    for _ in range(_MAX_ATTEMPTS):
        h, g = _draw_gains(rng, geo)
        if params.eta * float(np.sum(h)) >= 1.0 / params.xi:
            continue
        users = tuple(
            UserChannel.from_gains(float(hi), float(gi), qi, params)
            for hi, gi, qi in zip(h, g, qs)
        )
        return Scenario(params=params, users=users)
    raise RuntimeError(
        f"no admissible channel draw in {_MAX_ATTEMPTS} attempts; "
        "the geometry harvests more than the station radiates"
    )
