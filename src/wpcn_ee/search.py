"""Small scalar search utilities shared by the solvers."""

from __future__ import annotations

import math
from typing import Callable

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
_XTOL = 2e-12  # brentq's absolute tolerance on x (scipy's default)
_RTOL = 1e-15  # brentq's relative tolerance on x
_NEWTON_RTOL = 1e-14  # newton_bisect's relative tolerance on x
_NEWTON_MAX_ITER = 100  # newton_bisect's iteration cap


def golden_section_max(
    f: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float, int]:
    """Maximize a unimodal f on [lo, hi] by golden-section search.

    Returns (x_best, f(x_best), evaluations).  The bracket shrinks to
    1e-9 of its starting width.  The endpoints are always among the
    candidates, so a maximum at the boundary is found exactly.
    """
    a, b = lo, hi
    h = b - a
    tol = 1e-9 * h
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc = f(c)
    fd = f(d)
    n = 2
    while h > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
        n += 1
    # Compare interior best with the original endpoints: boundary optima
    # (e.g. tau0 = 0) must not be lost to the shrinking bracket.
    cands = [(c, fc), (d, fd), (lo, f(lo)), (hi, f(hi))]
    n += 2
    x, fx = max(cands, key=lambda t: t[1])
    return x, fx, n


def newton_bisect(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    lo: float,
    hi: float,
    x0: float,
) -> float:
    """Root of f on a bracket [lo, hi] with f(lo), f(hi) of opposite sign.

    Newton steps from x0, falling back to bisection whenever a step
    leaves the bracket or fails to shrink it.  f must be monotone
    enough that the bracket stays valid (callers guarantee strict
    monotonicity).  The bracket shrinks to a relative width of 1e-14,
    within 100 iterations.
    """
    a, b = lo, hi
    fa = f(a)
    if fa == 0.0:
        return a
    x = min(max(x0, a), b)
    for _ in range(_NEWTON_MAX_ITER):
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
        else:
            b = x
        if b - a <= _NEWTON_RTOL * max(abs(a), abs(b), 1e-300):
            return 0.5 * (a + b)
        d = fprime(x)
        step_ok = d != 0.0
        if step_ok:
            xn = x - fx / d
            step_ok = a < xn < b
        x = xn if step_ok else 0.5 * (a + b)
    return 0.5 * (a + b)


def _value(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if fx != fx:
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f: Callable[[float], float], a: float, b: float, maxiter: int) -> float:
    """Root of f on [a, b] by Brent's method (Brent 1973, ch. 4).

    An operation-for-operation port of scipy.optimize.brentq (its
    brentq.c) at xtol = 2e-12 and rtol = 1e-15: the same evaluation
    points, the same root to the bit.  Raises ValueError when f is NaN
    or f(a) and f(b) share a sign, RuntimeError after maxiter
    iterations without convergence.
    """
    xpre, xcur = float(a), float(b)
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # f is never NaN and the bracket ends are nonzero here, so a sign
    # test stands in for C's signbit.
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # C divides an underflowed den to inf or NaN, and either
                # fails the acceptance test below: a bisection step.
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den != 0.0 else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
