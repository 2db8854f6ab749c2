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

W0 is `_lambertw0`, an operation-for-operation port of
scipy.special.lambertw(z, 0) for real z > -1/e: the initial guesses and
Halley iteration of Corless, Gonnet, Hare, Jeffrey and Knuth, "On the
Lambert W function" (Adv. Comput. Math. 5, 1996), which is scipy's
reference too.  It returns scipy's double to the bit, so the package
does not import scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .model import LN2, SystemParams

# 1 + W0(z) = sum_n c_n t^n with t = sqrt(2*(1 + e*z)) = sqrt(2x), highest
# power first for Horner's rule (the constant term is zero).  Below
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


_OMEGA = 0.56714329040978387299997  # W0(1)
_EXPN1 = 0.36787944117144232159553  # 1/e
_LAMBERTW_TOL = 1e-8  # scipy's default relative step tolerance
_PADE_NUM = (12.85106382978723404255, 12.34042553191489361902, 1.0)
_PADE_DEN = (32.53191489361702127660, 14.34042553191489361702, 1.0)


def _fma(x: float, y: float, z: float) -> float:
    """x*y + z rounded once, as C's fma (math.fma arrives in Python 3.13).

    The sum is exact in integers over a power-of-two denominator, and
    int / int rounds correctly.
    """
    (a, b), (c, d), (e, f) = x.as_integer_ratio(), y.as_integer_ratio(), z.as_integer_ratio()
    return (a * c * f + e * b * d) / (b * d * f)


def _cevalpoly(coeffs: tuple[float, float, float], t: float) -> float:
    """c0*t^2 + c1*t + c2 as scipy's cevalpoly evaluates it at a real t
    (Knuth, TAOCP vol. 2, 4.6.4 eq. (3)), fused multiply-adds included."""
    c0, c1, c2 = coeffs
    r = 2.0 * t
    s = t * t
    a, b = _fma(r, c0, c1), _fma(-s, c0, c2)
    return t * a + b


def _clog_real(x: float) -> float:
    """ln x for x > 0 as the real part of glibc's clog(x + 0j), which
    scipy's complex log reaches: log1p near 1, log elsewhere.  clog's
    rescaling above DBL_MAX/2 is left out; z stays below it here."""
    if x == 1.0:
        return 0.0
    if 0.5 <= x < 2.0:
        return math.log1p((x - 1.0) * (x + 1.0)) / 2.0
    return math.log(x)


def _lambertw0(z: float) -> float:
    """Principal-branch Lambert W of a real z > -1/e.

    An operation-for-operation port of scipy.special.lambertw(z, 0, 1e-8)
    restricted to the real line: the same initial guess (branch-point
    series, (3, 2) Pade approximant or two asymptotic terms, Corless et
    al. 4.22 and 4.20) and the same Halley steps (5.9), so the same
    double.
    """
    if z == 0.0 or z == math.inf:
        return z
    if z == 1.0:
        return _OMEGA
    if abs(z + _EXPN1) < 0.3:
        w = _cevalpoly((-1.0 / 3.0, 1.0, -1.0), math.sqrt(2.0 * (math.e * z + 1.0)))
    elif -0.2 < z < 1.5:
        w = z * _cevalpoly(_PADE_NUM, z) / _cevalpoly(_PADE_DEN, z)
    else:
        w = _clog_real(z)
        w = w - _clog_real(w)
    # The iteration form is fixed by the sign of the first guess; for
    # w >= 0 it divides through by e^w so exp cannot overflow.
    if w >= 0.0:
        for _ in range(100):
            ew = math.exp(-w)
            f = w - z * ew
            wn = w - f / (w + 1.0 - (w + 2.0) * f / (2.0 * w + 2.0))
            if abs(wn - w) <= _LAMBERTW_TOL * abs(wn):
                return wn
            w = wn
    else:
        for _ in range(100):
            ew = math.exp(w)
            wew = w * ew
            f = wew - z
            wn = w - f / (wew + ew - (w + 2.0) * f / (2.0 * w + 2.0))
            if abs(wn - w) <= _LAMBERTW_TOL * abs(wn):
                return wn
            w = wn
    return math.nan


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
    Every gamma must be positive and finite.
    """
    c = params.pc * params.varsigma
    p: list[float] = []
    ee: list[float] = []
    for g in gamma:
        if not (math.isfinite(g) and g > 0.0):
            raise ValueError("gamma must be positive and finite")
        x = g * c
        if x < _SERIES_BELOW:
            t = math.sqrt(2.0 * x)
            ls = 0.0
            for ck in _BRANCH_SERIES:
                ls = ls * t + ck
        else:
            ls = 1.0 + _lambertw0((x - 1.0) / math.e)
        pk = math.expm1(ls) / g
        p.append(pk)
        ee.append(params.W * ls / (LN2 * (pk / params.varsigma + params.pc)))
    return tuple(p), tuple(ee)


def max_user_ee(gamma: float, params: SystemParams) -> UserEEPoint:
    """The unique maximizer of ee and its value; see user_ee_peaks."""
    (p,), (ee,) = user_ee_peaks((gamma,), params)
    return UserEEPoint(p_star=p, ee_star=ee)
