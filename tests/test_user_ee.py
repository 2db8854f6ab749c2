"""Single-user EE: closed analytic case, scan agreement, shape, and the
closed form against a bisection reference."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from wpcn_ee import SystemParams, max_user_ee, user_ee_at
from wpcn_ee.user_ee import user_ee_peaks

from conftest import stock_params


def _stationarity(p, gamma, vs, pc):
    # Proportional to d(ee)/dp: positive left of p_star, negative right of it.
    s = 1.0 + p * gamma
    return gamma * (p / vs + pc) / s - math.log(s) / vs


def bisect_user_ee(gamma, params, p_tol=1e-12, max_iter=200):
    """Reference maximizer: bisection on the sign of d(ee)/dp.

    The bracket upper end doubles from 1 W until the derivative goes
    negative; p_tol is absolute in watts.
    """
    vs, pc = params.varsigma, params.pc
    hi = 1.0
    while _stationarity(hi, gamma, vs, pc) >= 0.0:
        hi *= 2.0
    lo = 0.0
    for _ in range(max_iter):
        if hi - lo <= p_tol:
            break
        mid = 0.5 * (lo + hi)
        if _stationarity(mid, gamma, vs, pc) > 0.0:
            lo = mid
        else:
            hi = mid
    p_star = 0.5 * (lo + hi)
    return p_star, user_ee_at(p_star, gamma, params)


def stationarity_residual(p, gamma, params):
    """|d(ee)/dp| at the float p, relative to its ln(s)/varsigma term,
    evaluated in 400-digit decimal arithmetic, enough to resolve s - 1
    down to the smallest doubles."""
    with localcontext() as ctx:
        ctx.prec = 400
        p, g = Decimal(p), Decimal(gamma)
        vs, pc = Decimal(params.varsigma), Decimal(params.pc)
        s = 1 + p * g
        log_term = s.ln() / vs
        return float(abs((g * (p / vs + pc) / s - log_term) / log_term))


def unit_params():
    # W = varsigma = pc = 1 collapses the stationarity condition to
    # gamma*p = e - 1 at gamma = 1
    return SystemParams(
        W=1.0, sigma2=1.0, Gamma=1.0, eta=0.9, xi=1.0, varsigma=1.0,
        Pc=0.1, pc=1.0, Pmax=10.0, Tmax=1.0,
    )


def test_analytic_point():
    pt = max_user_ee(1.0, unit_params())
    assert pt.p_star == pytest.approx(math.e - 1.0, abs=1e-9)
    assert pt.ee_star == pytest.approx(1.0 / (math.e * math.log(2.0)), abs=1e-9)


def test_value_matches_evaluation():
    par = stock_params()
    for gamma in (0.3, 5.0, 800.0):
        pt = max_user_ee(gamma, par)
        assert pt.ee_star == pytest.approx(user_ee_at(pt.p_star, gamma, par), rel=1e-12)


def test_scan_agreement_small():
    # dense-scan oracle on a handful of draws; the full-size version
    # lives in the acceptance suite
    rng = np.random.default_rng(7)
    for _ in range(25):
        gamma = 10.0 ** rng.uniform(-2, 4)
        par = stock_params(
            W=10.0 ** rng.uniform(2, 6),
            varsigma=rng.uniform(0.3, 1.0),
            pc=10.0 ** rng.uniform(-4, -1),
        )
        pt = max_user_ee(gamma, par)
        p_grid = np.geomspace(pt.p_star / 50, pt.p_star * 50, 20001)
        ee_grid = par.W * np.log2(1.0 + p_grid * gamma) / (p_grid / par.varsigma + par.pc)
        assert pt.ee_star >= ee_grid.max() * (1.0 - 1e-9)


def test_maximum_is_interior():
    par = stock_params()
    pt = max_user_ee(8.0, par)
    eps = 1e-6 * pt.p_star
    assert user_ee_at(pt.p_star + eps, 8.0, par) <= pt.ee_star
    assert user_ee_at(pt.p_star - eps, 8.0, par) <= pt.ee_star


def test_unimodal_shape():
    # increasing to the left of the peak, decreasing to the right
    par = stock_params()
    pt = max_user_ee(2.0, par)
    left = np.geomspace(pt.p_star / 100, pt.p_star, 200)
    right = np.geomspace(pt.p_star, pt.p_star * 100, 200)
    ee_left = [user_ee_at(p, 2.0, par) for p in left]
    ee_right = [user_ee_at(p, 2.0, par) for p in right]
    assert all(b >= a - 1e-12 for a, b in zip(ee_left, ee_left[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(ee_right, ee_right[1:]))


def test_scaling_in_gamma():
    # stronger uplink channel never hurts the achievable user EE
    par = stock_params()
    values = [max_user_ee(g, par).ee_star for g in (0.1, 1.0, 10.0, 100.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_edge_cases():
    par = stock_params()
    assert user_ee_at(0.0, 5.0, par) == 0.0
    with pytest.raises(ValueError):
        user_ee_at(-1.0, 5.0, par)
    with pytest.raises(ValueError):
        user_ee_at(1.0, 0.0, par)
    for bad in (-2.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            max_user_ee(bad, par)
    with pytest.raises(ValueError):
        user_ee_peaks([1.0, math.nan], par)


def sweep_gammas(params, lo=1e-6, hi=1e7, n=261):
    """gammas whose gamma*pc*varsigma is log-spaced over [lo, hi]."""
    return np.geomspace(lo, hi, n) / (params.pc * params.varsigma)


def test_closed_form_matches_bisection_reference():
    # unit circuit power keeps p_star >= 0.07 W, where the reference's
    # absolute 1e-12 W tolerance is well under 1e-9 relative
    par = unit_params()
    p, ee = user_ee_peaks(sweep_gammas(par), par)
    for g, pk, ek in zip(sweep_gammas(par), p, ee):
        p_ref, ee_ref = bisect_user_ee(float(g), par)
        assert pk == pytest.approx(p_ref, rel=1e-9)
        assert ek == pytest.approx(ee_ref, rel=1e-13)


@pytest.mark.parametrize("par", [unit_params(), stock_params(varsigma=0.5)])
def test_closed_form_residual_within_the_reference(par):
    gammas = sweep_gammas(par)
    p, _ = user_ee_peaks(gammas, par)
    closed = max(stationarity_residual(pk, g, par) for pk, g in zip(p, gammas))
    ref = max(
        stationarity_residual(bisect_user_ee(float(g), par)[0], g, par) for g in gammas
    )
    assert closed <= ref
    assert closed < 1e-14


def test_vector_and_scalar_agree_bit_for_bit():
    par = stock_params()
    gammas = np.concatenate([sweep_gammas(par, 1e-12, 1e9, 97), [3.0, 3.0]])
    p, ee = user_ee_peaks(gammas, par)
    for g, pk, ek in zip(gammas, p, ee):
        pt = max_user_ee(float(g), par)
        assert (pt.p_star, pt.ee_star) == (pk, ek)


def test_finite_positive_near_the_branch_point():
    # gamma*pc*varsigma -> 0 drives s -> 1 and the W0 argument to -1/e
    par = unit_params()
    xs = np.array([1e-300, 1e-30, 1e-16, 1e-10, 1e-6, 9.99e-4, 1e-3, 1.001e-3, 1e-2])
    p, ee = user_ee_peaks(xs, par)
    assert np.all(np.isfinite(p) & (p > 0.0))
    assert np.all(np.isfinite(ee) & (ee > 0.0))
    for x, pk in zip(xs, p):
        assert stationarity_residual(pk, x, par) < 1e-13
    # p_star -> sqrt(2x)/gamma as x -> 0
    assert p[0] == pytest.approx(math.sqrt(2.0 / 1e-300), rel=1e-12)
    # no jump where the series hands over to W0
    assert p[5:8] * xs[5:8] == pytest.approx(np.sqrt(2.0 * xs[5:8]), rel=3e-2)
    assert np.all(np.diff(p * xs) > 0.0)
