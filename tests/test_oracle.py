"""Checks on the brute-force grid oracle itself: the ground truth had
better be trustworthy before the solvers are judged against it."""

import itertools

import numpy as np
import pytest

from wpcn_ee import (
    MODE_INFEASIBLE,
    MODE_PWPCN,
    MODE_QOS,
    GridSpec,
    check_constraints,
    default_geometry,
    default_system_params,
    generate_scenario,
    grid_search_best_effort,
    grid_search_qos,
    max_throughput,
    solve_best_effort,
    solve_qos,
)
from wpcn_ee.model import Allocation, energy_total, scenario_from_values, throughput
from wpcn_ee.oracle import _axes

from conftest import random_scenario, stock_params


def with_floor(scen, rmin):
    import dataclasses

    par = dataclasses.replace(scen.params, Rmin=rmin)
    return scenario_from_values(par, list(scen.h), list(scen.gamma), list(scen.Q))


def test_grid_allocation_is_feasible():
    rng = np.random.default_rng(11)
    for _ in range(5):
        scen = random_scenario(rng, 2, q_mode="mixed")
        rep = grid_search_best_effort(scen, GridSpec(n_tau=20, n_p=12))
        assert check_constraints(rep.alloc, scen, tol=1e-7).feasible


def test_grid_never_beats_the_closed_form():
    # the closed form is provably optimal on battery-free scenarios, so
    # any grid point exceeding it would expose a bug in one of the two
    rng = np.random.default_rng(13)
    for _ in range(8):
        scen = random_scenario(rng, 2, q_mode="zero")
        sol = solve_best_effort(scen)
        rep = grid_search_best_effort(scen, GridSpec(n_tau=25, n_p=15))
        assert rep.ee <= sol.ee * (1.0 + 1e-9)
        assert rep.mode == MODE_PWPCN or rep.alloc.tau0 == 0.0


def test_resolution_bound_present_and_sane():
    rng = np.random.default_rng(17)
    scen = random_scenario(rng, 1, q_mode="zero")
    grid = GridSpec(n_tau=30, n_p=20)
    rep = grid_search_best_effort(scen, grid)
    info = rep.iterations
    assert info["grid_points"] == 30 * 30 * 20
    assert info["resolution_bound_ee"] >= 0.0
    # the bound should shrink as the grid gets denser near the optimum
    fine = grid_search_best_effort(scen, GridSpec(n_tau=120, n_p=80))
    assert fine.iterations["resolution_bound_ee"] <= info["resolution_bound_ee"]


def test_nested_refinement_never_loses_ground():
    # linspace(0, T, 2a - 1) contains linspace(0, T, a) exactly, and a
    # geomspace with 2m - 1 points contains the one with m points, so
    # the finer grid is a superset and its best EE cannot drop
    rng = np.random.default_rng(19)
    for _ in range(4):
        scen = random_scenario(rng, 1, q_mode="mixed")
        coarse = grid_search_best_effort(scen, GridSpec(n_tau=15, n_p=10))
        fine = grid_search_best_effort(scen, GridSpec(n_tau=29, n_p=18))
        assert fine.ee >= coarse.ee * (1.0 - 1e-12)


def test_floor_respected_or_infeasible():
    rng = np.random.default_rng(23)
    for _ in range(5):
        scen = random_scenario(rng, 2, q_mode="zero")
        r_star = max_throughput(scen).R_star
        easy = with_floor(scen, 0.2 * r_star)
        rep = grid_search_qos(easy, GridSpec(n_tau=25, n_p=15))
        assert rep.mode == MODE_QOS
        assert rep.throughput >= 0.2 * r_star * (1.0 - 1e-9)

        hopeless = with_floor(scen, 2.0 * r_star)
        bad = grid_search_qos(hopeless, GridSpec(n_tau=25, n_p=15))
        assert bad.mode == MODE_INFEASIBLE
        assert bad.ee == 0.0
        assert "resolution_bound_ee" not in bad.iterations


@pytest.mark.parametrize(
    "K, seeds, grid",
    [(1, range(8706, 8710), GridSpec()), (2, range(8704, 8707), GridSpec(n_tau=25, n_p=15))],
)
def test_grid_reaches_floors_near_the_rate_ceiling(K, seeds, grid):
    # Rmin = 0.95 R* on stock draws: meeting it takes powers far above
    # 8x p*, and with every power axis capped there the grid held no
    # point on the floor and reported INFEASIBLE, though every floor at
    # or below R* is feasible
    for seed in seeds:
        base = generate_scenario(default_geometry(K=K, seed=seed), default_system_params())
        scen = with_floor(base, 0.95 * max_throughput(base).R_star)
        rep = grid_search_qos(scen, grid)
        assert rep.mode == MODE_QOS, seed
        assert rep.throughput >= scen.params.Rmin * (1.0 - 1e-12), seed
        assert check_constraints(rep.alloc, scen, tol=1e-7).feasible, seed
        assert rep.ee <= solve_qos(scen).ee * (1.0 + 1e-9), seed


def scan_ee(scen, point, rmin=None, slack=1e-12):
    """EE of one grid point (tau0, tau_1..tau_K, p_1..p_K) from the model's
    accounting, -1 where the oracle's relative masks reject it."""
    par, K = scen.params, scen.K
    tau0, tau, p = point[0], point[1 : 1 + K], point[1 + K :]
    if tau0 + sum(tau) > par.Tmax * (1.0 + slack):
        return -1.0
    for u, pk, tk in zip(scen.users, p, tau):
        budget = par.eta * par.Pmax * tau0 * u.h + u.Q
        if (pk / par.varsigma + par.pc) * tk > budget * (1.0 + slack):
            return -1.0
    alloc = Allocation(P0=par.Pmax, tau0=tau0, p=tuple(p), tau=tuple(tau))
    bits, joules = throughput(alloc, scen), energy_total(alloc, scen)
    if rmin is not None and bits < rmin * (1.0 - slack):
        return -1.0
    return bits / joules if joules > 0.0 else 0.0


@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize("floor", [None, 0.1, 0.3])
def test_oracle_matches_an_exhaustive_product_scan(K, floor):
    # an independent scalar scan over itertools.product must find the
    # oracle's winner, first in C order, and the same neighbor swing
    grid = GridSpec(n_tau=4, n_p=3)
    rng = np.random.default_rng(43 + K)
    feasible = 0
    for q_mode in ("zero", "positive", "mixed"):
        scen = random_scenario(rng, K, q_mode=q_mode)
        rmin = None
        if floor is not None:
            rmin = floor * max_throughput(scen).R_star
            scen = with_floor(scen, rmin)
        t_axis, p_axes = _axes(scen, grid, rmin)
        axes = [[float(t) for t in t_axis]] * (1 + K) + [[float(p) for p in ax] for ax in p_axes]
        best, best_idx = -1.0, None
        for idx in itertools.product(*(range(len(ax)) for ax in axes)):
            ee = scan_ee(scen, [ax[i] for ax, i in zip(axes, idx)], rmin)
            if ee > best:
                best, best_idx = ee, idx
        rep = (grid_search_best_effort if rmin is None else grid_search_qos)(scen, grid)
        if best_idx is None:
            assert rep.mode == MODE_INFEASIBLE, q_mode
            continue
        feasible += 1
        point = [ax[i] for ax, i in zip(axes, best_idx)]
        tau, p = point[1 : 1 + K], point[1 + K :]
        assert rep.alloc.tau0 == point[0] and rep.alloc.tau == tuple(tau), q_mode
        assert rep.alloc.p == tuple(pk if tk > 0.0 else 0.0 for pk, tk in zip(p, tau)), q_mode
        assert rep.ee == pytest.approx(best, rel=1e-14, abs=0.0), q_mode

        swings = []
        for ax, step in itertools.product(range(len(axes)), (-1, 1)):
            idx = list(best_idx)
            idx[ax] += step
            if 0 <= idx[ax] < len(axes[ax]):
                ee = scan_ee(scen, [a[i] for a, i in zip(axes, idx)])
                if ee >= 0.0:
                    swings.append(abs(ee - best))
        bound = rep.iterations["resolution_bound_ee"]
        assert bound == pytest.approx(max(swings, default=0.0), rel=1e-14, abs=0.0), q_mode
    assert feasible >= 2


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(n_tau=1)
    with pytest.raises(ValueError):
        GridSpec(n_p=1)


def test_size_cap_enforced():
    rng = np.random.default_rng(29)
    scen = random_scenario(rng, 2, q_mode="zero")
    with pytest.raises(ValueError, match="cap"):
        grid_search_best_effort(scen, GridSpec(n_tau=60, n_p=40))


def test_more_than_two_users_rejected():
    rng = np.random.default_rng(37)
    scen = random_scenario(rng, 3, q_mode="zero")
    with pytest.raises(ValueError):
        grid_search_best_effort(scen, GridSpec(n_tau=10, n_p=8))
    with pytest.raises(ValueError):
        grid_search_qos(with_floor(scen, 1.0), GridSpec(n_tau=10, n_p=8))


def test_qos_needs_a_floor():
    rng = np.random.default_rng(41)
    scen = random_scenario(rng, 1, q_mode="zero")
    with pytest.raises(ValueError):
        grid_search_qos(scen, GridSpec(n_tau=10, n_p=8))
