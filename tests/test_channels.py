"""Channel generation: determinism, geometry, fading statistics."""

import dataclasses
import itertools
import math
import sys
import threading

import numpy as np
import pytest

from wpcn_ee import GeometryConfig, Scenario, UserChannel, generate_scenario, with_initial_energy

from conftest import stock_params


def test_deterministic_in_seed():
    geo = GeometryConfig(K=4, seed=123)
    a = generate_scenario(geo, stock_params())
    b = generate_scenario(geo, stock_params())
    assert a.h == b.h and a.gamma == b.gamma
    c = generate_scenario(dataclasses.replace(geo, seed=124), stock_params())
    assert a.h != c.h


def fresh_draw(geo, par, Q=0.0):
    """(scenario, index of the accepted attempt), drawn as one fresh
    generator per call draws it: the reference for the variates memo."""
    rng = np.random.default_rng(geo.seed)
    for attempt in range(100):
        d = rng.uniform(geo.d_min_m, geo.d_max_m, size=geo.K)
        kappa = 10.0 ** (geo.rician_K_dB / 10.0)
        los = math.sqrt(kappa / (kappa + 1.0))
        scatter = math.sqrt(1.0 / (2.0 * (kappa + 1.0)))
        x = rng.standard_normal(geo.K)
        y = rng.standard_normal(geo.K)
        fade_dl = (los + scatter * x) ** 2 + (scatter * y) ** 2
        xu = rng.standard_normal(geo.K)
        yu = rng.standard_normal(geo.K)
        fade_ul = 0.5 * (xu**2 + yu**2)
        h = geo.ref_gain * d ** (-geo.alpha) * fade_dl
        g = geo.ref_gain * (geo.d_rx_m - d) ** (-geo.alpha) * fade_ul
        if par.eta * math.fsum(h.tolist()) >= 1.0 / par.xi:
            continue
        qs = [float(Q)] * geo.K if np.isscalar(Q) else [float(q) for q in Q]
        users = tuple(
            UserChannel.from_gains(float(hi), float(gi), qi, par) for hi, gi, qi in zip(h, g, qs)
        )
        return Scenario(params=par, users=users), attempt
    raise AssertionError("no admissible attempt")


def test_draws_match_a_fresh_generator_in_any_order():
    # every call equals a fresh generator's draw to the bit, whichever
    # seeds, alphas, user counts and distance ranges came before it
    par = stock_params()
    geos = [
        GeometryConfig(K=K, seed=seed, alpha=alpha, d_max_m=d_max)
        for seed in (8700, 8701)
        for alpha in (2.0, 2.8, 3.6)
        for K, d_max in ((10, 15.0), (3, 15.0), (10, 12.0))
    ]
    orders = [
        geos,
        sorted(geos, key=lambda g: (g.alpha, g.seed)),  # value-major
        list(np.random.default_rng(3).permutation(np.array(geos, dtype=object))),
    ]
    q = [0.0, 0.05] * 5
    for order in orders:
        for geo in order:
            Q = q[: geo.K]
            assert generate_scenario(geo, par, Q=Q) == fresh_draw(geo, par, Q)[0], geo


@pytest.mark.parametrize(
    "geo, accepted",
    [
        # three attempts harvest too much at alpha 2 before an admissible
        # one, while alpha 3 takes the first
        (GeometryConfig(K=3, seed=22, ref_gain=12.0), {2.0: 3, 3.0: 0}),
        # alpha 3 keeps 67 attempts and alpha 2 needs 95: the attempts
        # past the kept ones must be new, or the cap of 100 comes first
        (GeometryConfig(K=1, seed=118, ref_gain=12000.0), {2.0: 94, 3.0: 66}),
    ],
)
def test_rejected_attempt_leads_to_the_fresh_generators_next(geo, accepted):
    par = stock_params()
    at = {alpha: dataclasses.replace(geo, alpha=alpha) for alpha in accepted}
    want = {alpha: fresh_draw(g, par) for alpha, g in at.items()}
    assert {alpha: w[1] for alpha, w in want.items()} == accepted
    evict = dataclasses.replace(geo, seed=geo.seed + 1, ref_gain=1.0)
    for order in ((3.0, 2.0, 3.0, 2.0), (2.0, 3.0), (3.0, 2.0)):
        generate_scenario(evict, par)
        for alpha in order:
            assert generate_scenario(at[alpha], par) == want[alpha][0], order


def test_concurrent_callers_get_their_own_draws():
    # four threads on two cores, switching often, sweep the same draws
    # in opposite orders, the forced rejections above among them
    par = stock_params()
    geos = [GeometryConfig(K=4, seed=s, alpha=a) for s, a in itertools.product(range(6), (2.0, 3.0))]
    geos += [GeometryConfig(K=3, seed=22, ref_gain=12.0, alpha=a) for a in (3.0, 2.0)]
    want = [fresh_draw(g, par)[0] for g in geos]
    forward = list(range(len(geos)))
    start = threading.Barrier(4)
    wrong = []

    def worker(order):
        start.wait()
        for _ in range(20):
            for i in order:
                if generate_scenario(geos[i], par) != want[i]:
                    wrong.append(i)

    threads = [threading.Thread(target=worker, args=(o,)) for o in (forward, forward[::-1]) * 2]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_all_initial_energy_zero():
    geo = GeometryConfig(K=6, seed=1)
    scen = generate_scenario(geo, stock_params())
    assert scen.Q == (0.0,) * 6


def test_batteries_are_drawn_with_the_channels():
    geo, par = GeometryConfig(K=3, seed=5), stock_params()
    for q in (0.2, [0.1, 0.3, 0.05], [0.0, 0.04, 0.0]):
        charged = generate_scenario(geo, par, Q=q)
        assert charged == with_initial_energy(generate_scenario(geo, par), q)
    # the length check runs before the draw, an all-zero list included
    for q in ([0.1, 0.2], [0.0, 0.0], [0.0] * 4):
        with pytest.raises(ValueError, match="Q must be scalar or match the user count"):
            generate_scenario(geo, par, Q=q)


def test_battery_charge_is_a_real_number_not_a_bool():
    # numpy scalars are one shared charge (np.int64 and np.float32 used
    # to fail as not iterable); True used to charge every user 1 J, and
    # a bool or a string in the list used to become a number
    geo, par = GeometryConfig(K=3, seed=5), stock_params()
    base = generate_scenario(geo, par)
    for q, shared in ((np.int64(0), 0.0), (np.float32(0.5), 0.5), (np.float64(0.2), 0.2)):
        assert generate_scenario(geo, par, Q=q).Q == (shared,) * 3
        assert with_initial_energy(base, q).Q == (shared,) * 3
    for q in (True, False, np.True_, [0.1, True, 0.0], [np.True_, 0.0, 0.0], [0.1, "0.2", 0.0]):
        with pytest.raises(ValueError, match="number"):
            generate_scenario(geo, par, Q=q)
        with pytest.raises(ValueError, match="number"):
            with_initial_energy(base, q)


def test_admissibility_always_holds():
    par = stock_params()
    for seed in range(50):
        scen = generate_scenario(GeometryConfig(K=8, seed=seed), par)
        assert scen.harvest_sum < 1.0 / par.xi


def test_gain_magnitudes_follow_distance_bounds():
    # pathloss brackets: gains must lie between the extremes allowed by
    # the distance interval, scaled by the fading support
    geo = GeometryConfig(K=5, seed=9, ref_gain=1e-3)
    par = stock_params()
    scen = generate_scenario(geo, par)
    h_hi = 1e-3 * geo.d_min_m ** (-geo.alpha)
    for h in scen.h:
        assert h < h_hi * 20.0  # fading is unit mean; 20x tail is generous
        assert h > 0.0
    g_hi = 1e-3 * (geo.d_rx_m - geo.d_max_m) ** (-geo.alpha)
    for u in scen.users:
        assert 0.0 < u.g < g_hi * 20.0


def test_downlink_mean_matches_pathloss_average():
    # E[h] = ref * E[d^-alpha] with unit-mean Rician fading; use a tiny
    # reference gain so the admissibility rejection never distorts it
    geo = GeometryConfig(K=1000, seed=77, ref_gain=1e-9)
    par = stock_params()
    acc = []
    for seed in range(100):
        scen = generate_scenario(dataclasses.replace(geo, seed=seed), par)
        acc.extend(scen.h)
    a, lo, hi = geo.alpha, geo.d_min_m, geo.d_max_m
    expected = 1e-9 * (lo ** (1 - a) - hi ** (1 - a)) / ((a - 1) * (hi - lo))
    mean = float(np.mean(acc))
    assert mean == pytest.approx(expected, rel=0.02)


def test_uplink_mean_matches_pathloss_average():
    geo = GeometryConfig(K=1000, seed=31, ref_gain=1e-9)
    par = stock_params()
    acc = []
    dists = []
    for seed in range(60):
        scen = generate_scenario(dataclasses.replace(geo, seed=seed), par)
        acc.extend(u.g for u in scen.users)
    a, lo, hi = geo.alpha, geo.d_min_m, geo.d_max_m
    # receiver sits at d_rx; uplink distance is d_rx - d
    u_lo, u_hi = geo.d_rx_m - hi, geo.d_rx_m - lo
    expected = 1e-9 * (u_lo ** (1 - a) - u_hi ** (1 - a)) / ((a - 1) * (u_hi - u_lo))
    mean = float(np.mean(acc))
    assert mean == pytest.approx(expected, rel=0.02)


@pytest.mark.parametrize(
    "seed, ref_gain, accepted",
    [
        # the first attempt sums to 1/xi exactly in fsum and one ulp below
        # it in numpy's sum: it used to pass the draw's test and then
        # fail Scenario's, raising instead of drawing on to the third
        (18, 30.641747524949988, 2),
        # one ulp below 1/xi in fsum and exactly 1/xi in numpy's sum: it
        # used to be redrawn, though Scenario accepts it
        (16, 13.232655680783743, 0),
    ],
)
def test_draw_and_scenario_share_the_admissibility_test(seed, ref_gain, accepted):
    par = stock_params(xi=0.6666666666666666)
    geo = GeometryConfig(K=7, seed=seed, ref_gain=ref_gain)
    want, attempt = fresh_draw(geo, par)
    assert attempt == accepted
    assert generate_scenario(geo, par) == want


def test_rejection_error_when_inadmissible():
    # huge reference gain forces the harvest sum over the cap every draw
    geo = GeometryConfig(K=8, seed=0, ref_gain=1e6)
    with pytest.raises(RuntimeError, match="in 100 attempts"):
        generate_scenario(geo, stock_params())


def test_geometry_validation():
    with pytest.raises(ValueError):
        GeometryConfig(K=0)
    with pytest.raises(ValueError):
        GeometryConfig(K=2, d_min_m=5.0, d_max_m=2.0)
    with pytest.raises(ValueError):
        GeometryConfig(K=2, d_max_m=400.0, d_rx_m=300.0)
    for ref_gain in (0.0, -1.0):
        with pytest.raises(ValueError, match="ref_gain must be positive"):
            GeometryConfig(K=2, ref_gain=ref_gain)
    # K and seed must be integers (numpy's included, bools not), and the
    # seed non-negative; each used to fail inside numpy at the draw
    for bad, message in (
        ({"K": 2.5}, "K must be an integer"),
        ({"K": True}, "K must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": -1}, "expected non-negative integer"),
    ):
        with pytest.raises(ValueError, match=message):
            GeometryConfig(**{"K": 2, **bad})
    assert GeometryConfig(K=np.int64(3), seed=np.uint32(7)).K == 3
    for name in ("d_min_m", "d_max_m", "d_rx_m", "alpha", "rician_K_dB", "ref_gain"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                GeometryConfig(K=2, **{name: bad})
