"""Channel generation: determinism, geometry, fading statistics."""

import dataclasses
import math

import numpy as np
import pytest

from wpcn_ee import GeometryConfig, generate_scenario, with_initial_energy

from conftest import stock_params


def test_deterministic_in_seed():
    geo = GeometryConfig(K=4, seed=123)
    a = generate_scenario(geo, stock_params())
    b = generate_scenario(geo, stock_params())
    assert a.h == b.h and a.gamma == b.gamma
    c = generate_scenario(dataclasses.replace(geo, seed=124), stock_params())
    assert a.h != c.h


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
    with pytest.raises(ValueError):
        GeometryConfig(K=2, ref_gain=0.0)
    for name in ("d_min_m", "d_max_m", "d_rx_m", "alpha", "rician_K_dB", "ref_gain"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                GeometryConfig(K=2, **{name: bad})
