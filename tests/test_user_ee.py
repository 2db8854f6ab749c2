"""Single-user EE: closed analytic case, scan agreement, shape, the
peak against a bisection reference, a high-precision root and scipy's
Lambert W formula, and the Newton iteration's start and step count."""

import math
import statistics
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.special import lambertw

import wpcn_ee.user_ee as user_ee_module
from wpcn_ee import SystemParams, max_user_ee, user_ee_at
from wpcn_ee.model import LN2
from wpcn_ee.user_ee import _BRANCH_SERIES, _SERIES_BELOW, user_ee_peaks

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
    # gamma*pc*varsigma overflows: this used to return p_star = inf and
    # ee_star = nan
    with pytest.raises(ValueError, match="gamma\\*pc\\*varsigma must be finite"):
        max_user_ee(1e308, stock_params(pc=10.0))
    # ee_star overflows at a huge W: this used to return ee_star = inf,
    # which solve_best_effort then rejected with an internal message
    with pytest.raises(ValueError, match="ee_star must be finite"):
        max_user_ee(1e9, stock_params(W=1e308))


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
    # gamma*pc*varsigma -> 0 drives s -> 1, where Newton's residual cancels
    par = unit_params()
    xs = np.array([1e-300, 1e-30, 1e-16, 1e-10, 1e-6, 9.99e-4, 1e-3, 1.001e-3, 1e-2])
    p, ee = map(np.asarray, user_ee_peaks(xs, par))
    assert np.all(np.isfinite(p) & (p > 0.0))
    assert np.all(np.isfinite(ee) & (ee > 0.0))
    for x, pk in zip(xs, p):
        assert stationarity_residual(pk, x, par) < 1e-13
    # p_star -> sqrt(2x)/gamma as x -> 0
    assert p[0] == pytest.approx(math.sqrt(2.0 / 1e-300), rel=1e-12)
    # no jump where the series hands over to Newton
    assert p[5:8] * xs[5:8] == pytest.approx(np.sqrt(2.0 * xs[5:8]), rel=3e-2)
    assert np.all(np.diff(p * xs) > 0.0)


def scipy_user_ee_peaks(gamma, params):
    """user_ee_peaks through scipy.special.lambertw: ln s = 1 + W0((x - 1)/e)."""
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
def test_peaks_match_the_scipy_version(par):
    # scipy's argument (x - 1)/e rounds away the low bits of x: just above
    # x = 1e-3 its p_star is off by up to ~1.2e-13 relative, so a denser
    # set of gammas there would need a wider bound
    gammas = np.concatenate([sweep_gammas(par), sweep_gammas(par, 1e-12, 1e9, 97)])
    for got, want in zip(user_ee_peaks(gammas, par), scipy_user_ee_peaks(gammas, par)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def newton_log_s(x):
    """ln s for x >= _SERIES_BELOW by the module's Newton iteration, with
    the residual and slope at full size."""
    log_s, last = 1.0 + math.log1p(x / (1.0 + math.log1p(x))), math.inf
    while True:
        em = math.expm1(log_s)
        nxt = log_s - (em * (log_s - 1.0) + log_s - x) / ((em + 1.0) * log_s)
        step = log_s - nxt
        if not 0.0 < step < last:
            return log_s
        log_s, last = nxt, step


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
            log_s = newton_log_s(x)
        assert pk.hex() == (math.expm1(log_s) / g).hex()


def decimal_log_s(x, digits=60):
    """The root of e^L (L - 1) + 1 - x to `digits` significant digits, by
    Newton's method; the start only sets the number of steps."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        X, L = Decimal(x), Decimal(1.0 + math.log1p(x / (1.0 + math.log1p(x))))
        for _ in range(100):
            e = L.exp()
            step = (e * (L - 1) + 1 - X) / (e * L)
            L -= step
            if abs(step) <= abs(L) * Decimal(10) ** -digits:
                return L
    raise AssertionError(f"no decimal root at x = {x!r}")


# The error of p_star in ulps (median, max) on the sample below as the
# scipy Lambert W port this module used to carry returned it (62.823 and
# 500.076), rounded up in the second decimal.
PORT_ULPS = (62.83, 500.08)


def test_peak_power_matches_a_decimal_root():
    # gamma = x (pc = varsigma = 1), so p_star = expm1(ln s)/x.  At large
    # x, half an ulp of ln s is hundreds of ulps of p_star, so these
    # figures are dominated by the rounding of ln s itself.
    par = unit_params()
    xs = (10.0 ** np.random.default_rng(27).uniform(-3.0, 300.0, 3000)).tolist()
    p, _ = user_ee_peaks(xs, par)
    ulps = []
    with localcontext() as ctx:
        ctx.prec = 70
        for x, pk in zip(xs, p):
            want = (decimal_log_s(x).exp() - 1) / Decimal(x)
            ulps.append(float(abs(Decimal(pk) - want) / Decimal(math.ulp(float(want)))))
    assert statistics.median(ulps) <= PORT_ULPS[0]
    assert max(ulps) <= PORT_ULPS[1]


class _RecordingMath:
    """The math module with every argument of expm1 recorded."""

    def __init__(self):
        self.expm1_args = []

    def __getattr__(self, name):
        return getattr(math, name)

    def expm1(self, v):
        self.expm1_args.append(v)
        return math.expm1(v)


def newton_iterates(monkeypatch, x):
    """The iterates of user_ee_peaks' Newton pass at gamma = x (unit
    params), start first, and the ln s it returns.  expm1 runs once per
    pass and once more for p_star."""
    rec = _RecordingMath()
    monkeypatch.setattr(user_ee_module, "math", rec)
    user_ee_peaks([x], unit_params())
    monkeypatch.undo()
    *iterates, log_s = rec.expm1_args
    return iterates, log_s


def test_newton_starts_above_the_root_and_falls_to_it(monkeypatch):
    # up to the largest double, where the start's e^L * L overflows
    top = 1.7976931348623157e308
    xs = np.concatenate([10.0 ** np.linspace(-3.0, 308.0, 800), [1.0, 22.1, top]]).tolist()
    for x in xs:
        iterates, log_s = newton_iterates(monkeypatch, x)
        assert iterates[-1] == log_s, x
        assert all(b < a for a, b in zip(iterates, iterates[1:])), x
        root = decimal_log_s(x, digits=30)
        start = Decimal(iterates[0])
        with localcontext() as ctx:
            ctx.prec = 400
            assert start.exp() * (start - 1) + 1 - Decimal(x) > 0, x
        assert start - root > Decimal("0.25"), x
        assert abs(Decimal(log_s) - root) <= Decimal(1e-14) * root, x


def test_newton_pass_count(monkeypatch):
    # Seven passes for most x.  Near x = 1e-3, where the residual cancels
    # to (ln s)^2 / 2 from terms of size ln s, its rounding noise is tens
    # of ulps of ln s; the loop stops once a step does not shrink, where
    # it used to let the iterate creep down by a few ulps per pass (up to
    # ~35 passes) until the noise turned negative.  13 is this grid's most
    xs = np.concatenate([np.geomspace(_SERIES_BELOW, 1.0, 3000), np.geomspace(1.0, 1e300, 3000)])
    passes = np.array([len(newton_iterates(monkeypatch, x)[0]) for x in xs.tolist()])
    assert np.median(passes) <= 7
    assert passes[xs >= 1.0].max() <= 8
    assert passes.max() <= 13
