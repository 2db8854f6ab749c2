"""Single-user energy efficiency: rate per joule as a function of transmit power.

For a user with SNR coefficient gamma, transmitting at power p costs
p/varsigma + pc watts (amplifier plus circuitry) and yields
W*log2(1 + p*gamma) bits/s, so

    ee(p) = W * log2(1 + p*gamma) / (p/varsigma + pc).

ee is strictly quasiconcave on p >= 0 with ee(0) = 0, a unique interior
maximizer p_star, and decay to zero as p grows.  The maximizer has a
closed form.  With s = 1 + p*gamma and x = gamma*pc*varsigma, setting
d(ee)/dp = 0 gives

    s * (ln s - 1) = x - 1,

so ln s = 1 + W0((x - 1)/e) on the principal Lambert-W branch (s > 1
means W > -1), and p_star = expm1(ln s) / gamma.  Near the branch point
(x -> 0, s -> 1) the argument (x - 1)/e loses x to rounding and W0 has
a square-root singularity, so there ln s comes from the branch-point
series in t = sqrt(2x) instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike
from scipy.special import lambertw

from .model import LN2, SystemParams

# 1 + W0(z) = sum_n c_n t^n with t = sqrt(2*(1 + e*z)) = sqrt(2x), highest
# power first for np.polyval (the constant term is zero).  Below
# _SERIES_BELOW the truncated series is accurate to ~3e-15 relative, where
# W0 of the rounded argument is off by more.
_BRANCH_SERIES = (
    226287557 / 37623398400,
    -1963 / 204120,
    680863 / 43545600,
    -221 / 8505,
    769 / 17280,
    -43 / 540,
    11 / 72,
    -1 / 3,
    1.0,
    0.0,
)
_SERIES_BELOW = 1e-3


@dataclass(frozen=True)
class UserEEPoint:
    """The per-user optimum: argmax power and the efficiency there."""

    p_star: float
    ee_star: float


def user_ee_at(p: float, gamma: float, params: SystemParams) -> float:
    """Energy efficiency in bits/J at transmit power p >= 0."""
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError("gamma must be positive and finite")
    if not (math.isfinite(p) and p >= 0.0):
        raise ValueError("p must be nonnegative and finite")
    rate = params.W * math.log2(1.0 + p * gamma)
    return rate / (p / params.varsigma + params.pc)


def user_ee_peaks(gamma: ArrayLike, params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """EE-optimal powers and peak efficiencies for a vector of gammas.

    Returns (p_star, ee_star) as 1-D float arrays, one entry per gamma.
    Every gamma must be positive and finite.
    """
    g = np.array(gamma, dtype=float, ndmin=1)
    if not np.all(np.isfinite(g) & (g > 0.0)):
        raise ValueError("gamma must be positive and finite")
    x = g * (params.pc * params.varsigma)
    log_s = 1.0 + lambertw((x - 1.0) / math.e, 0).real
    small = x < _SERIES_BELOW
    if small.any():
        t = np.sqrt(2.0 * x[small])
        log_s[small] = np.polyval(_BRANCH_SERIES, t)
    p = np.expm1(log_s) / g
    ee = params.W * log_s / (LN2 * (p / params.varsigma + params.pc))
    return p, ee


def max_user_ee(gamma: float, params: SystemParams) -> UserEEPoint:
    """The unique maximizer of ee and its value; see user_ee_peaks."""
    p, ee = user_ee_peaks((gamma,), params)
    return UserEEPoint(p_star=float(p[0]), ee_star=float(ee[0]))
