"""Throughput maximization: grid oracles, tightness, unimodality,
and perturbation checks of the ceiling."""

import dataclasses
import math

import numpy as np
import pytest

from wpcn_ee import (
    check_constraints,
    dbm_to_watts,
    default_geometry,
    default_system_params,
    generate_scenario,
    inner_time_allocation,
    is_feasible,
    max_throughput,
    scenario_from_values,
    throughput,
)

from conftest import random_scenario, stock_params


def grid_best_rate(scen, n=80):
    """Test-local brute force: budget-exhausting powers on a dense
    (tau0, tau_1[, tau_2]) grid.  Returns (best R, local resolution)."""
    par = scen.params
    t0 = np.linspace(0.0, par.Tmax, n)
    t1 = np.linspace(1e-9, par.Tmax, n)
    W, vs, pc = par.W, par.varsigma, par.pc
    if scen.K == 1:
        A = par.eta * par.Pmax * t0[:, None] * scen.h[0] + scen.Q[0]
        p = np.maximum(0.0, vs * (A / t1[None, :] - pc))
        R = t1[None, :] * W * np.log2(1.0 + p * scen.gamma[0])
        R[t0[:, None] + t1[None, :] > par.Tmax] = -1.0
    else:
        t2 = t1
        A1 = par.eta * par.Pmax * t0[:, None, None] * scen.h[0] + scen.Q[0]
        A2 = par.eta * par.Pmax * t0[:, None, None] * scen.h[1] + scen.Q[1]
        p1 = np.maximum(0.0, vs * (A1 / t1[None, :, None] - pc))
        p2 = np.maximum(0.0, vs * (A2 / t2[None, None, :] - pc))
        R = t1[None, :, None] * W * np.log2(1.0 + p1 * scen.gamma[0]) + t2[
            None, None, :
        ] * W * np.log2(1.0 + p2 * scen.gamma[1])
        R[t0[:, None, None] + t1[None, :, None] + t2[None, None, :] > par.Tmax] = -1.0
    idx = np.unravel_index(np.argmax(R), R.shape)
    best = float(R[idx])
    # resolution: worst neighbor drop around the argmax
    res = 0.0
    for ax in range(R.ndim):
        for step in (-1, 1):
            j = list(idx)
            j[ax] += step
            if 0 <= j[ax] < R.shape[ax] and R[tuple(j)] >= 0.0:
                res = max(res, abs(best - float(R[tuple(j)])))
    return best, res


def test_grid_agreement_k1():
    rng = np.random.default_rng(17)
    for _ in range(10):
        scen = random_scenario(rng, 1, q_mode="mixed" if rng.random() < 0.5 else "zero")
        sol = max_throughput(scen)
        best, res = grid_best_rate(scen)
        assert sol.R_star >= best - res - 1e-9 * max(best, 1.0)


def test_grid_agreement_k2():
    rng = np.random.default_rng(19)
    for _ in range(6):
        scen = random_scenario(rng, 2, q_mode="mixed")
        sol = max_throughput(scen)
        best, res = grid_best_rate(scen, n=70)
        assert sol.R_star >= best - res - 1e-9 * max(best, 1.0)


def test_constraints_tight():
    rng = np.random.default_rng(29)
    for _ in range(15):
        scen = random_scenario(rng, int(rng.integers(1, 6)), q_mode="zero")
        sol = max_throughput(scen)
        par = scen.params
        assert sol.alloc.P0 == par.Pmax
        total = sol.alloc.tau0 + math.fsum(sol.alloc.tau)
        assert total == pytest.approx(par.Tmax, rel=1e-7)
        for k in range(scen.K):
            if sol.alloc.tau[k] <= 0.0:
                continue
            budget = par.eta * par.Pmax * sol.alloc.tau0 * scen.h[k] + scen.Q[k]
            spend = (sol.alloc.p[k] / par.varsigma + par.pc) * sol.alloc.tau[k]
            assert spend == pytest.approx(budget, rel=1e-7)
        assert check_constraints(sol.alloc, scen).feasible


def test_reported_rate_matches_allocation():
    rng = np.random.default_rng(37)
    scen = random_scenario(rng, 3, q_mode="mixed")
    sol = max_throughput(scen)
    assert sol.R_star == pytest.approx(throughput(sol.alloc, scen), rel=1e-12)


def test_inner_allocation_consistency():
    rng = np.random.default_rng(41)
    scen = random_scenario(rng, 4, q_mode="zero")
    par = scen.params
    tau, R = inner_time_allocation(0.3, scen)
    assert math.fsum(tau) <= (par.Tmax - 0.3) * (1.0 + 1e-12)
    # recompute the rate from budget-exhausting powers
    acc = 0.0
    for k, t in enumerate(tau):
        if t <= 0.0:
            continue
        A = par.eta * par.Pmax * 0.3 * scen.h[k] + scen.Q[k]
        p = max(0.0, par.varsigma * (A / t - par.pc))
        acc += t * par.W * math.log2(1.0 + p * scen.gamma[k])
    assert R == pytest.approx(acc, rel=1e-9)
    with pytest.raises(ValueError, match="tau0 must be nonnegative"):
        inner_time_allocation(-0.1, scen)
    # inf used to return an empty split with R = 0, and nan to blame Tmax
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tau0 must be finite"):
            inner_time_allocation(bad, scen)


def test_rate_curve_unimodal():
    rng = np.random.default_rng(53)
    for _ in range(5):
        scen = random_scenario(rng, 3, q_mode="zero")
        taus = np.linspace(0.0, scen.params.Tmax, 60)
        rates = [inner_time_allocation(t, scen)[1] for t in taus]
        peak = int(np.argmax(rates))
        tol = 1e-9 * max(rates)
        assert all(b >= a - tol for a, b in zip(rates[:peak], rates[1 : peak + 1]))
        assert all(b <= a + tol for a, b in zip(rates[peak:], rates[peak + 1 :]))


def test_charging_used_when_batteries_empty():
    rng = np.random.default_rng(59)
    scen = random_scenario(rng, 3, q_mode="zero")
    sol = max_throughput(scen)
    assert sol.alloc.tau0 > 0.0
    assert sol.R_star > 0.0


def test_tiny_block_tiny_rate():
    par = stock_params(Tmax=1e-9)
    scen = scenario_from_values(par, [0.01], [5.0], [0.0])
    sol = max_throughput(scen)
    assert 0.0 <= sol.R_star < 1.0


def test_monotone_in_resources():
    rng = np.random.default_rng(61)
    scen = random_scenario(rng, 2, q_mode="zero")
    base = max_throughput(scen).R_star
    more_power = scenario_from_values(
        stock_params(Pmax=scen.params.Pmax * 2), scen.h, scen.gamma
    )
    assert max_throughput(more_power).R_star >= base
    with_batteries = scenario_from_values(scen.params, scen.h, scen.gamma, [0.5, 0.5])
    assert max_throughput(with_batteries).R_star >= base


def test_feasibility_thresholds():
    rng = np.random.default_rng(67)
    scen = random_scenario(rng, 2, q_mode="zero")
    r_star = max_throughput(scen).R_star
    with pytest.raises(ValueError):
        is_feasible(scen)  # no floor configured
    at = scenario_from_values(
        dataclasses.replace(scen.params, Rmin=r_star), scen.h, scen.gamma
    )
    assert is_feasible(at)
    above = scenario_from_values(
        dataclasses.replace(scen.params, Rmin=1.01 * r_star), scen.h, scen.gamma
    )
    assert not is_feasible(above)
    zero = scenario_from_values(
        dataclasses.replace(scen.params, Rmin=0.0), scen.h, scen.gamma
    )
    assert is_feasible(zero)


def pinned_20dbm_scenario():
    # A K=5 draw on which a golden-section search over tau0 lands on the
    # wrong side of a jump in R(tau0) and reports 31815.39.
    par = dataclasses.replace(default_system_params(), Pmax=dbm_to_watts(20.0))
    return generate_scenario(default_geometry(K=5, seed=8704), par)


def test_pinned_ceiling_regression():
    scen = pinned_20dbm_scenario()
    sol = max_throughput(scen)
    assert sol.R_star >= 31822.43
    assert check_constraints(sol.alloc, scen).feasible


def test_inner_rate_continuous_and_concave_on_pinned_scenario():
    scen = pinned_20dbm_scenario()
    taus = np.linspace(0.84, 0.86, 201)
    rates = np.array([inner_time_allocation(t, scen)[1] for t in taus])
    # one step of 1e-4 s moves R by a few bits here; a jump moves it by 1e4
    assert np.abs(np.diff(rates)).max() <= 1e-3 * rates.max()
    assert np.diff(rates, 2).max() <= 1e-9 * rates.max()


def drained_rate(scen, tau0, tau):
    """Block throughput when every user spends its whole stock; a slot
    longer than its stock can power at zero transmit power is cut back."""
    par = scen.params
    total = 0.0
    for k, t in enumerate(tau):
        stock = par.eta * par.Pmax * tau0 * scen.h[k] + scen.Q[k]
        t = min(t, stock / par.pc)
        if t > 0.0:
            p = par.varsigma * (stock / t - par.pc)
            total += t * par.W * math.log2(1.0 + p * scen.gamma[k])
    return total


def test_no_perturbation_beats_the_ceiling():
    rng = np.random.default_rng(8704)
    for K in range(3, 9):
        scen = random_scenario(rng, K, q_mode="mixed")
        par = scen.params
        sol = max_throughput(scen)
        x = np.array((sol.alloc.tau0,) + sol.alloc.tau)
        assert drained_rate(scen, x[0], x[1:]) == pytest.approx(sol.R_star, rel=1e-12)
        for scale in (1e-1, 1e-3, 1e-5, 1e-7):
            for _ in range(50):
                y = np.maximum(0.0, x + scale * par.Tmax * rng.standard_normal(K + 1))
                y *= min(1.0, par.Tmax / y.sum())
                assert drained_rate(scen, y[0], y[1:]) <= sol.R_star * (1.0 + 1e-12)
