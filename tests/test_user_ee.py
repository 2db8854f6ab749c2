"""Single-user EE: closed analytic case, scan agreement, shape, the
closed form against a bisection reference, and the Lambert W port against
scipy's."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import lambertw

from wpcn_ee import SystemParams, max_user_ee, user_ee_at
from wpcn_ee.model import LN2
from wpcn_ee.user_ee import _BRANCH_SERIES, _SERIES_BELOW, _fma, _lambertw0, user_ee_peaks

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
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            user_ee_at(bad, 5.0, par)
        with pytest.raises(ValueError):
            user_ee_at(1.0, bad, par)
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
    p, ee = map(np.asarray, user_ee_peaks(xs, par))
    assert np.all(np.isfinite(p) & (p > 0.0))
    assert np.all(np.isfinite(ee) & (ee > 0.0))
    for x, pk in zip(xs, p):
        assert stationarity_residual(pk, x, par) < 1e-13
    # p_star -> sqrt(2x)/gamma as x -> 0
    assert p[0] == pytest.approx(math.sqrt(2.0 / 1e-300), rel=1e-12)
    # no jump where the series hands over to W0
    assert p[5:8] * xs[5:8] == pytest.approx(np.sqrt(2.0 * xs[5:8]), rel=3e-2)
    assert np.all(np.diff(p * xs) > 0.0)


def _scipy_w0(z):
    return lambertw(np.asarray(z, dtype=float), 0).real


def _z_at(x):
    """The W0 argument user_ee_peaks forms from x = gamma*pc*varsigma."""
    return (x - 1.0) / math.e


_EDGE = -1.0 / math.e + 0.3  # the branch-point guess's disc ends here
LAMBERTW_CASES = {
    "zero": 0.0,
    "one": 1.0,
    "branch-point": -0.3,
    "pade": 0.5,
    "asymptotic": 10.0,
    "below-branch-edge": math.nextafter(_EDGE, -1.0),
    "branch-edge": _EDGE,
    "above-branch-edge": math.nextafter(_EDGE, 1.0),
    "below-pade-low-edge": math.nextafter(-0.2, -1.0),
    "pade-low-edge": -0.2,
    "above-pade-low-edge": math.nextafter(-0.2, 1.0),
    "below-pade-high-edge": math.nextafter(1.5, 0.0),
    "pade-high-edge": 1.5,
    "above-pade-high-edge": math.nextafter(1.5, 2.0),
    "series-cutoff": _z_at(_SERIES_BELOW),
    "above-series-cutoff": _z_at(math.nextafter(_SERIES_BELOW, 1.0)),
    # ln z in clog's log1p band 1 < z < 2, then ln w for w = ln z - ln ln z
    # in its band 0.5 <= w < 1, at w == 1 (z = e) and in 1 < w < 2
    "log1p-band-z": 1.6,
    "log1p-band-w-below-one": 1.9,
    "w-exactly-one": math.e,
    "log1p-band-w-above-one": 5.0,
    "huge": 1e300,
    "infinite": math.inf,
}


@pytest.mark.parametrize("z", LAMBERTW_CASES.values(), ids=LAMBERTW_CASES.keys())
def test_lambertw0_matches_scipy_bit_for_bit(z):
    got = _lambertw0(z)
    assert type(got) is float
    assert got.hex() == float(_scipy_w0(z)).hex()


def test_lambertw0_matches_scipy_on_random_arguments():
    # the reachable domain: x >= the series cutoff, up to z near DBL_MAX/2
    rng = np.random.default_rng(1996)
    x = np.concatenate(
        [
            10.0 ** rng.uniform(-3.0, 12.0, 50_000),
            rng.uniform(_SERIES_BELOW, 5.0, 30_000),
            10.0 ** rng.uniform(12.0, 308.0, 20_000),
        ]
    )
    z = _z_at(x)
    want = _scipy_w0(z)
    got = np.array([_lambertw0(zk) for zk in z.tolist()])
    mismatched = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert mismatched.size == 0, z[mismatched[:5]]


def test_fma_rounds_once():
    # x*y = 1 + 2^-29 + 2^-60: rounding the product first drops 2^-60
    x = y = 1.0 + 2.0**-30
    z = -(1.0 + 2.0**-29)
    assert x * y + z == 0.0
    assert _fma(x, y, z) == 2.0**-60
    rng = np.random.default_rng(3)
    for x, y, z in (10.0 ** rng.uniform(-20.0, 20.0, (2000, 3)) * rng.choice([-1.0, 1.0], (2000, 3))).tolist():
        assert _fma(x, y, z) == float(Fraction(x) * Fraction(y) + Fraction(z))


def scipy_user_ee_peaks(gamma, params):
    """user_ee_peaks as it stood with scipy.special.lambertw: the
    reference for the port."""
    g = np.array(gamma, dtype=float, ndmin=1)
    x = g * (params.pc * params.varsigma)
    log_s = 1.0 + lambertw((x - 1.0) / math.e, 0).real
    small = x < _SERIES_BELOW
    if small.any():
        log_s[small] = np.polyval(_BRANCH_SERIES, np.sqrt(2.0 * x[small]))
    p = np.array([math.expm1(ls) for ls in log_s.tolist()]) / g
    ee = params.W * log_s / (LN2 * (p / params.varsigma + params.pc))
    return p, ee


@pytest.mark.parametrize("par", [unit_params(), stock_params(), stock_params(varsigma=0.5)])
def test_peaks_match_the_scipy_version_bit_for_bit(par):
    gammas = np.concatenate([sweep_gammas(par), sweep_gammas(par, 1e-12, 1e9, 97)])
    for got, want in zip(user_ee_peaks(gammas, par), scipy_user_ee_peaks(gammas, par)):
        got = np.asarray(got)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("par", [unit_params(), stock_params()])
def test_peak_power_is_math_expm1_of_log_s_over_gamma(par):
    # libm's expm1, not numpy's SIMD kernel, whose last bit follows the CPU
    gammas = sweep_gammas(par, 1e-12, 1e9, 397).tolist()
    p, ee = user_ee_peaks(gammas, par)
    assert type(p) is tuple and type(ee) is tuple
    assert all(type(v) is float for v in p + ee)
    for g, pk in zip(gammas, p):
        x = g * (par.pc * par.varsigma)
        if x < _SERIES_BELOW:
            t = math.sqrt(2.0 * x)
            log_s = 0.0
            for c in _BRANCH_SERIES:
                log_s = log_s * t + c
        else:
            log_s = 1.0 + _lambertw0((x - 1.0) / math.e)
        assert pk.hex() == (math.expm1(log_s) / g).hex()
