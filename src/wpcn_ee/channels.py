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
from typing import Iterable, Iterator

import numpy as np

from .model import Scenario, SystemParams, UserChannel, _admissible, _battery_vector, db_to_linear

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
        for name in ("K", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.seed < 0:
            raise ValueError(f"expected non-negative integer seed, got {self.seed!r}")
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


# The raw variates of every attempt drawn so far at the latest
# (seed, K, d_min_m, d_max_m), as (key, attempts).  Assigned whole, so a
# reader never pairs one key with another key's attempts.
_latest_draw: tuple[tuple, tuple[tuple[np.ndarray, ...], ...]] = ((), ())


def _draw_variates(rng: np.random.Generator, geo: GeometryConfig) -> tuple[np.ndarray, ...]:
    """One attempt's raw variates (d, x, y, xu, yu), read-only: the user
    distances and the real and imaginary parts of the down- and uplink
    fading."""
    variates = (
        rng.uniform(geo.d_min_m, geo.d_max_m, size=geo.K),
        rng.standard_normal(geo.K),
        rng.standard_normal(geo.K),
        rng.standard_normal(geo.K),
        rng.standard_normal(geo.K),
    )
    for a in variates:
        a.flags.writeable = False
    return variates


def _attempts(geo: GeometryConfig) -> Iterator[tuple[np.ndarray, ...]]:
    """The raw variates of each draw attempt at geo.seed, in the order a
    fresh default_rng(geo.seed) draws them.

    Nothing else in the geometry changes what the generator draws, so
    every value of a sweep trial reads one set of attempts.  Only the
    latest key's attempts are kept.  Past them a new generator is
    stepped over the kept attempts and draws on, so each caller owns
    its generator and the variates never depend on call order.
    """
    global _latest_draw
    key = (geo.seed, geo.K, geo.d_min_m, geo.d_max_m)
    latest, drawn = _latest_draw
    if latest != key:
        drawn = ()
    yield from drawn
    rng = np.random.default_rng(geo.seed)
    for _ in drawn:
        _draw_variates(rng, geo)
    while True:
        drawn += (_draw_variates(rng, geo),)
        _latest_draw = (key, drawn)
        yield drawn[-1]


def _gains(
    variates: tuple[np.ndarray, ...], geo: GeometryConfig
) -> tuple[list[float], list[float]]:
    """Downlink and uplink power gains h and g of one attempt."""
    d, x, y, xu, yu = variates

    # Downlink: Rician with K-factor kappa, unit mean power.
    kappa = db_to_linear(geo.rician_K_dB)
    los = math.sqrt(kappa / (kappa + 1.0))
    scatter = math.sqrt(1.0 / (2.0 * (kappa + 1.0)))
    fade_dl = (los + scatter * x) ** 2 + (scatter * y) ** 2

    # Uplink: Rayleigh, unit mean power.
    fade_ul = 0.5 * (xu**2 + yu**2)

    h = geo.ref_gain * d ** (-geo.alpha) * fade_dl
    g = geo.ref_gain * (geo.d_rx_m - d) ** (-geo.alpha) * fade_ul
    return h.tolist(), g.tolist()


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
    for _, variates in zip(range(_MAX_ATTEMPTS), _attempts(geo)):
        h, g = _gains(variates, geo)
        if not _admissible(params, h):
            continue
        users = tuple(UserChannel.from_gains(hi, gi, qi, params) for hi, gi, qi in zip(h, g, qs))
        return Scenario(params=params, users=users)
    raise RuntimeError(
        f"no admissible channel draw in {_MAX_ATTEMPTS} attempts; "
        "the geometry harvests more than the station radiates"
    )
