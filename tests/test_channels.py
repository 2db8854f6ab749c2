"""Channel generation: determinism, geometry, fading statistics, and the
plain-Python copy of numpy's default_rng stream the draws run on."""

import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from wpcn_ee import GeometryConfig, Scenario, UserChannel, generate_scenario, with_initial_energy
from wpcn_ee import channels

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
    # huge reference gain forces the harvest sum over the cap every draw:
    # the geometry is at fault, so a ValueError (it was a RuntimeError)
    geo = GeometryConfig(K=8, seed=0, ref_gain=1e6)
    with pytest.raises(ValueError, match="in 100 attempts"):
        generate_scenario(geo, stock_params())


def test_geometry_validation():
    with pytest.raises(ValueError):
        GeometryConfig(K=0)
    with pytest.raises(ValueError):
        GeometryConfig(K=2, d_min_m=5.0, d_max_m=2.0)
    with pytest.raises(ValueError):
        GeometryConfig(K=2, d_max_m=400.0, d_rx_m=300.0)
    for name in ("alpha", "ref_gain"):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                GeometryConfig(K=2, **{name: bad})
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


# numpy's PCG64 stepped by hand: the LCG multiplier and its inverse
MULT = 0x2360ED051FC65DA44385DF649FCCF645
MULT_INV = pow(MULT, -1, 2**128)
MASK128 = 2**128 - 1


def steered(first, second=None):
    """A PCG64 (state, increment) whose next raw outputs are the 64-bit
    words first and, if given, second.

    A state whose high half H is below 2**58 rotates by 0, so its output
    is H ^ L: state `first` outputs first, and (H << 64) | (second ^ H)
    outputs second.  The increment links the two states (it must be odd,
    which H in {0, 1} arranges), and the state before them is one
    inverse step back.
    """
    s1 = first
    if second is None:
        inc = 0x5851F42D4C957F2D14057B7EF767814F  # any odd stream
    else:
        h = 0 if (second ^ first) & 1 else 1
        inc = ((h << 64 | (second ^ h)) - s1 * MULT) & MASK128
    return ((s1 - inc) * MULT_INV) & MASK128, inc


def numpy_at(state):
    """A numpy Generator and its PCG64 at a (state, increment)."""
    bg = np.random.PCG64()
    bg.state = {
        "bit_generator": "PCG64",
        "state": {"state": state[0], "inc": state[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bg), bg


def one_normal(state):
    """(numpy's standard normal, its state after) and the port's, from
    one steered state."""
    gen, bg = numpy_at(state)
    want = (gen.standard_normal(), bg.state["state"]["state"])
    rng = channels._PCG64(*state)
    return want, (rng.standard_normal(1)[0], rng.state)


def recovered_ziggurat():
    """numpy's ziggurat (ki, wi) tables, read off the installed numpy.

    A word with strip index i, sign 0 and 52-bit magnitude m gives
    x = m * wi[i] when m < ki[i], in one raw output.  So m = 1 reads
    wi[i] (a zero double follows, which passes the density test where
    1 is already past the strip's bound), and a bisection on whether
    the draw took one output finds ki[i], the least m that does not.
    """
    ki, wi = [], []
    for idx in range(256):
        gen, _ = numpy_at(steered(idx | 1 << 9, 0))
        wi.append(gen.standard_normal())
        lo, hi = -1, 2**52  # m = lo is taken at once (or lo = -1), m = hi is not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            word = idx | mid << 9
            gen, bg = numpy_at(steered(word))
            gen.standard_normal()
            if bg.state["state"]["state"] == word:
                lo = mid
            else:
                hi = mid
        ki.append(hi)
    return tuple(ki), tuple(wi)


def port_attempt(seed, K):
    """The variates of a channel attempt from the port's generator at
    seed: K distances uniform on [2, 15], then four times K normals."""
    rng = channels._PCG64(*channels._seed_state(seed))
    return (rng.uniform(2.0, 15.0, K), *(rng.standard_normal(K) for _ in range(4)))


def test_seeding_and_stream_match_numpy():
    # SeedSequence, including seeds of more than four 32-bit words and
    # numpy integers, then raw doubles
    for seed in (0, 1, 8700, 2**32, 2**40 + 3, 2**64 + 1, 2**70 + 5, 2**128 + 7, 2**200 + 99,
                 np.int64(5), np.uint32(77), np.uint64(2**63 + 11)):
        st = np.random.PCG64(seed).state["state"]
        assert channels._seed_state(seed) == (st["state"], st["inc"]), seed
        rng = channels._PCG64(*channels._seed_state(seed))
        want = np.random.default_rng(seed).random(64).tolist()
        assert [rng.next_double() for _ in range(64)] == want, seed


def test_draws_match_numpys_default_rng():
    # the attempt default_rng(seed) draws, uniform(d_min, d_max, K) then
    # four standard_normal(K), over 20,400 seeds: 20,000 small ones, 200
    # above 2**64 and 200 given as numpy integers, each K in turn
    seeds = list(range(20_000)) + [2**64 + 977 * i for i in range(200)]
    seeds += [np.int64(10**12 + i) for i in range(200)]
    for i, seed in enumerate(seeds):
        K = (1, 2, 5, 10, 20, 50)[i % 6]
        gen = np.random.default_rng(seed)
        want = (gen.uniform(2.0, 15.0, size=K).tolist(),)
        want += tuple(gen.standard_normal(K).tolist() for _ in range(4))
        assert tuple(map(list, port_attempt(seed, K))) == want, seed


def test_seed_8700_stream_is_pinned():
    # literal values, so the stream stays put even if numpy's changes
    assert channels._seed_state(8700) == (
        0x8212928BB3AEBE0BA07635C8C9CB2335,
        0x8D5A1F54317ED1CC968102997057E5E5,
    )
    assert port_attempt(8700, 2) == (
        (9.865323669149621, 11.005593066640438),
        (1.048142907206408, 1.3167873931800287),
        (0.24811578536654239, -1.3630271768991982),
        (-0.7262743601748796, 0.9119496383843448),
        (0.8041792535658264, -0.9714301460049769),
    )


def test_stored_ziggurat_tables_are_numpys():
    assert recovered_ziggurat() == (channels._KI, channels._WI)
    # a draw at each strip's bound ki, and just under it, as numpy's
    for idx, bound in enumerate(channels._KI):
        for mag in {max(bound - 1, 0), bound}:
            for sign in (0, 1):
                want, got = one_normal(steered(idx | sign << 8 | mag << 9))
                assert got == want, (idx, mag, sign)
    # fi is the density exp(-x^2/2) at each strip edge x = wi * 2**52,
    # within an ulp: numpy's entries are not all exp's doubles
    assert channels._FI[0] == 1.0
    for w, f in zip(channels._WI[1:], channels._FI[1:]):
        exact = math.exp(-0.5 * (w * 2.0**52) ** 2)
        assert abs(f - exact) <= math.ulp(exact)


def test_tail_draws_match_numpy():
    # strip 0 past its bound: the tail beyond r, whose loop takes one or
    # more pairs of doubles; both signs, both loop lengths
    rng = np.random.default_rng(11)
    taken = set()
    for _ in range(400):
        mag = int(rng.integers(channels._KI[0], 2**52))
        word = mag << 9 | int(rng.integers(2)) << 8
        state, inc = steered(word)
        want, got = one_normal((state, inc))
        assert got == want and abs(want[0]) > channels._ZIG_R
        # raw outputs taken: the word, then two per pass of the tail loop
        outputs = 0
        while state != want[1]:
            state = (state * MULT + inc) & MASK128
            outputs += 1
        taken.add((outputs, want[0] > 0))
    assert {(3, True), (3, False)} <= taken
    assert any(outputs >= 5 for outputs, _ in taken)


def test_density_test_matches_numpy_at_its_threshold():
    # strips 1-255 past their bound, halfway to the strip's edge: a second
    # word u sets the density test (fi[i-1] - fi[i]) * u + fi[i] < exp(-x^2/2).
    # Bisect u with numpy for where it turns from accept to reject; the
    # port must agree on both sides, which holds only if every fi entry
    # and the test's rounding are numpy's to the bit
    for idx in range(1, 256):
        mag = (channels._KI[idx] + 2**52) // 2
        word = idx | mag << 9

        def accepts(m):
            gen, bg = numpy_at(steered(word, m << 11))
            x = gen.standard_normal()
            return x == mag * channels._WI[idx]

        lo, hi = 0, 2**53 - 1
        assert accepts(lo) and not accepts(hi), idx
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if accepts(mid) else (lo, mid)
        for m in (lo, hi):
            want, got = one_normal(steered(word, m << 11))
            assert got == want, (idx, m)


def test_a_sweep_never_loads_numpy_random(tmp_path):
    # the package, its command line and a small sweep run on the port
    sweep = {"axis": "alpha", "values": [2.0, 3.0], "trials": 2}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"geometry": {"K": 3}, "sweep": sweep}))
    argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]
    code = (
        "import sys, wpcn_ee, wpcn_ee.cli\n"
        f"assert wpcn_ee.cli.main({argv!r}) == 0\n"
        "print('numpy.random' in sys.modules, 'numpy' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split()[-2:] == ["False", "True"]
