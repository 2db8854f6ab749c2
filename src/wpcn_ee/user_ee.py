"""Single-user energy efficiency: rate per joule as a function of transmit power.

For a user with SNR coefficient gamma, transmitting at power p costs
p/varsigma + pc watts (amplifier plus circuitry) and yields
W*log2(1 + p*gamma) bits/s, so

    ee(p) = W * log2(1 + p*gamma) / (p/varsigma + pc).

ee is strictly quasiconcave on p >= 0 with ee(0) = 0, a unique interior
maximizer p_star, and decay to zero as p grows.  With s = 1 + p*gamma
and x = gamma*pc*varsigma, setting d(ee)/dp = 0 gives

    s * (ln s - 1) = x - 1,

so p_star = expm1(L) / gamma for L = ln s, the positive root of

    f(L) = e^L * (L - 1) + 1 - x.

f(0) = -x < 0 and f'(L) = L * e^L, so f is increasing and convex on
L > 0, and Newton's method started above the root stays above it: each
step lands on a tangent's zero, between the root and the iterate.  The
iterates fall monotonically and their steps shrink until the residual's
rounding noise takes over, so the iteration stops at the first step that
is not both positive and shorter than the one before, and needs no
tolerance.  The start L0 = 1 + log1p(x / (1 + log1p(x))) lies above the
root by 0.25 to 1 over all doubles, far more than its rounding error:
for x <= 1, L0 >= 1 and f(1) = 1 - x >= 0, and for larger x the tests
check f(L0) > 0 exactly.

The residual is evaluated as expm1(L) * (L - 1) + L - x.  It never forms
x - 1, which rounds away the low bits of a small x, nor e^L * (L - 1) + 1,
which cancels to L^2/2 as L -> 0.  As x -> 0 even this form cancels, so
below x = 1e-3 ln s comes from its series in t = sqrt(2x) (the
branch-point series of L = 1 + W0((x - 1)/e), W0 the Lambert W function).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .model import LN2, SystemParams

# ln s = sum_n c_n t^n with t = sqrt(2x), highest power first for
# Horner's rule (the constant term is zero).  Below _SERIES_BELOW the
# truncated series is accurate to ~3e-15 relative, where the Newton
# residual, of size (ln s)^2 from terms of size ln s, loses more.
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


def user_ee_peaks(
    gamma: Iterable[float], params: SystemParams
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """EE-optimal powers and peak efficiencies for a sequence of gammas.

    Returns (p_star, ee_star) as tuples of floats, one entry per gamma.
    Every gamma must be positive and finite, and so must gamma*pc*varsigma
    and each ee_star (a huge W can overflow it); a ValueError otherwise.
    """
    c = params.pc * params.varsigma
    p: list[float] = []
    ee: list[float] = []
    for g in gamma:
        if not (math.isfinite(g) and g > 0.0):
            raise ValueError("gamma must be positive and finite")
        x = g * c
        if not math.isfinite(x):
            raise ValueError("gamma*pc*varsigma must be finite")
        if x < _SERIES_BELOW:
            t = math.sqrt(2.0 * x)
            ls = 0.0
            for ck in _BRANCH_SERIES:
                ls = ls * t + ck
        else:
            # Residual and slope at a quarter of their size: exact, and
            # finite where the start's e^L * L overflows (x above ~6e307).
            ls = 1.0 + math.log1p(x / (1.0 + math.log1p(x)))
            x4, last = 0.25 * x, math.inf
            while True:
                e4 = 0.25 * math.expm1(ls)
                nxt = ls - (e4 * (ls - 1.0) + 0.25 * ls - x4) / ((e4 + 0.25) * ls)
                step = ls - nxt
                if not 0.0 < step < last:
                    break
                ls, last = nxt, step
        pk = math.expm1(ls) / g
        ek = params.W * ls / (LN2 * (pk / params.varsigma + params.pc))
        if not math.isfinite(ek):
            raise ValueError("ee_star must be finite")
        p.append(pk)
        ee.append(ek)
    return tuple(p), tuple(ee)


def max_user_ee(gamma: float, params: SystemParams) -> UserEEPoint:
    """The unique maximizer of ee and its value; see user_ee_peaks."""
    (p,), (ee,) = user_ee_peaks((gamma,), params)
    return UserEEPoint(p_star=p, ee_star=ee)
