"""Rate-floor solver: duals, Dinkelbach behavior, reductions, fills."""

import copy
import dataclasses
import math
import random
import re
import signal
import sys
import threading

import numpy as np
import pytest

from wpcn_ee import (
    MODE_INFEASIBLE,
    MODE_QOS,
    check_constraints,
    default_geometry,
    default_system_params,
    generate_scenario,
    dinkelbach_T,
    f0_wet_gate,
    grid_search_qos,
    GridSpec,
    dbm_to_watts,
    is_feasible,
    kkt_threshold_x,
    load_config,
    max_throughput,
    max_user_ee,
    multiplier_mu,
    power_from_duals,
    run_sweep,
    scenario_from_values,
    solve_best_effort,
    solve_qos,
    solve_qos_detailed,
)
from wpcn_ee import qos
from wpcn_ee.model import LN2
from wpcn_ee.qos import DualState, _record_roots, _stationarity, newton_bisect

from conftest import cfg_file, random_scenario, stock_params, with_floor


def _stationarity_prime(s, gamma, cln, W1, vs, pc):
    # F'(s), the slope `_record_roots` evaluates inline
    return -W1 / (s * LN2) + 1.0 / (gamma * vs) - pc


def forget_draws():
    # empty the solver's draw record, and with it the ceiling's ladder,
    # as a cold process has them
    qos._latest_draw = ((), None)


def score(gamma, q, vartheta, delta, par):
    # scheduling score: stationarity at mu = 0, minus the time price
    W1 = par.W * (1.0 + vartheta)
    cln = W1 * par.varsigma / LN2
    if gamma * cln <= q:
        return -q * par.pc - delta
    val = W1 * math.log2(gamma * cln / q) - (cln - q / gamma) / par.varsigma - q * par.pc
    return val - delta


def test_T_at_zero_q_under_a_reachable_floor_is_the_rate_ceiling():
    # the subtractive problem at q = 0 maximizes plain throughput.
    # dinkelbach_T and max_throughput share the q = 0 KKT level, so this
    # checks the floor gate and the wiring of value and allocation, not
    # a second solver; the grid tests (K <= 2) and the perturbation test
    # in test_throughput_max.py check R* independently
    rng = np.random.default_rng(71)
    for _ in range(8):
        scen = random_scenario(rng, int(rng.integers(1, 5)), q_mode="mixed")
        r_star = max_throughput(scen).R_star
        floor = with_floor(scen, 0.9 * r_star)
        value, alloc = dinkelbach_T(0.0, floor)
        assert value == pytest.approx(r_star, rel=1e-6)
        assert check_constraints(alloc, floor, tol=1e-6).feasible


def test_threshold_splits_users():
    par = stock_params()
    rng = np.random.default_rng(73)
    for _ in range(20):
        q = 10.0 ** rng.uniform(3, 6)
        vartheta = rng.uniform(0.0, 3.0)
        delta = 10.0 ** rng.uniform(-2, 4)
        x = kkt_threshold_x(q, vartheta, delta, par)
        assert score(x, q, vartheta, delta, par) == pytest.approx(0.0, abs=1e-6 * par.W)
        assert score(x * 1.01, q, vartheta, delta, par) > 0.0
        assert score(x * 0.99, q, vartheta, delta, par) < 0.0


def test_threshold_bracket_doubles_for_a_large_time_price():
    # at delta = 5q the score at twice the branch boundary is far below
    # delta, so the bracket's right end doubles about six times
    par = stock_params()
    q, delta = 2e4, 1e5
    x = kkt_threshold_x(q, 0.0, delta, par)
    assert x > 32.0 * q * LN2 / (par.W * par.varsigma)
    assert score(x, q, 0.0, delta, par) == pytest.approx(0.0, abs=1e-9 * delta)


def test_doubling_bracket_overflows_only_at_inf():
    # no finite cap: the bracket passes 2**60 and fails only at inf
    assert qos._double_until(lambda x: x > 2.0**1000, 1.0, "probe") == 2.0**1001
    with pytest.raises(RuntimeError, match="^probe bracket overflow$"):
        qos._double_until(lambda x: False, 1.0, "probe")


@pytest.mark.parametrize("seed", [8700, 8701, 8702])
def test_bandwidth_scales_the_ceiling_and_the_floor_ee(seed):
    # B is linear in W at a fixed allocation and E does not read W, so
    # W * 1e15 scales R* and the floor's EE by 1e15.  The WET-gate delta
    # scales with W too: it used to pass the doubling cap of 2**60 and
    # raise from W = 1e17 Hz on
    par = default_system_params()
    big = dataclasses.replace(par, W=par.W * 1e15)
    base = generate_scenario(default_geometry(K=5, seed=seed), par)
    wide = generate_scenario(default_geometry(K=5, seed=seed), big)
    r_star, r_wide = max_throughput(base).R_star, max_throughput(wide).R_star
    assert r_wide == pytest.approx(1e15 * r_star, rel=1e-12)
    floor, floor_wide = with_floor(base, 0.8 * r_star), with_floor(wide, 0.8 * r_wide)
    rep = solve_qos(floor_wide)
    assert rep.ee == pytest.approx(1e15 * solve_qos(floor).ee, rel=1e-12)
    assert check_constraints(rep.alloc, floor_wide).feasible


def test_threshold_requires_positive_q():
    with pytest.raises(ValueError):
        kkt_threshold_x(0.0, 0.0, 0.0, stock_params())


def test_multiplier_solves_stationarity():
    par = stock_params()
    rng = np.random.default_rng(79)
    for _ in range(20):
        q = 10.0 ** rng.uniform(3, 5)
        vartheta = rng.uniform(0.0, 2.0)
        delta = 10.0 ** rng.uniform(-1, 3)
        x = kkt_threshold_x(q, vartheta, delta, par)
        gamma = x * rng.uniform(1.5, 50.0)
        mu = multiplier_mu(gamma, q, vartheta, delta, par)
        assert mu > 0.0
        # the root reproduces the stationarity value delta
        W1 = par.W * (1.0 + vartheta)
        cln = W1 * par.varsigma / LN2
        s = q + mu
        resid = (
            W1 * math.log2(gamma * cln / s)
            - (cln - s / gamma) / par.varsigma
            - s * par.pc
            - delta
        )
        assert abs(resid) <= 1e-6 * W1
        # below the threshold there is no positive-power solution
        with pytest.raises(ValueError):
            multiplier_mu(x * 0.9, q, vartheta, delta, par)


def test_multiplier_monotone_in_gamma():
    par = stock_params()
    q, vartheta, delta = 2e4, 0.5, 10.0
    x = kkt_threshold_x(q, vartheta, delta, par)
    mus = [multiplier_mu(x * f, q, vartheta, delta, par) for f in (2.0, 5.0, 20.0)]
    assert mus[0] < mus[1] < mus[2]


def test_power_from_duals_formula():
    par = stock_params()
    q, vartheta, delta = 5e4, 1.0, 100.0
    x = kkt_threshold_x(q, vartheta, delta, par)
    gamma = 3.0 * x
    mu = multiplier_mu(gamma, q, vartheta, delta, par)
    p = power_from_duals(gamma, mu, q, vartheta, par)
    assert p > 0.0
    # stationarity of the power Lagrangian at p
    W1 = par.W * (1.0 + vartheta)
    lhs = W1 * par.varsigma * gamma / (LN2 * (1.0 + p * gamma))
    assert lhs == pytest.approx(q + mu, rel=1e-10)
    # a huge multiplier drives the power to the clamp
    assert power_from_duals(gamma, 1e12, q, vartheta, par) == 0.0
    with pytest.raises(ValueError):
        power_from_duals(gamma, -2 * q, q, vartheta, par)


def test_wet_gate_formula():
    rng = np.random.default_rng(83)
    scen = random_scenario(rng, 3, q_mode="zero")
    par = scen.params
    mu = [1e4, 2e4, 0.0]
    q, delta = 3e4, 7.0
    expected = (
        par.eta * par.Pmax * sum(m * h for m, h in zip(mu, scen.h))
        - q * (par.Pmax * scen.wet_deficit + par.Pc)
        - delta
    )
    assert f0_wet_gate(mu, q, delta, scen) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        f0_wet_gate([1.0], q, delta, scen)


def test_public_helpers_return_the_levels_doubles():
    # power_from_duals and f0_wet_gate compute through the level's own
    # formulas, so on every KKT level of this grid they give its doubles
    # (before, 1,228 of 3,780 powers and 180 of 720 gates differed by ulps)
    par = default_system_params()
    tight = 0
    for seed in range(8700, 8740):
        for K in (2, 5, 10):
            Q = 0.0 if seed % 2 == 0 else [0.05 * (k % 2) for k in range(K)]
            scen = generate_scenario(default_geometry(K=K, seed=seed), par, Q=Q)
            for q in (1e3, 3e4, 1e5):
                lvl = qos._Level(qos._Draw(scen), q)
                pt = lvl.point()
                assert f0_wet_gate(pt.mu, q, pt.delta, scen) == lvl._f0_at(pt.delta)
                for k in lvl.duals(pt.delta)[0]:
                    mu_k = pt.mu[k]
                    p = power_from_duals(scen.users[k].gamma, mu_k, q, 0.0, par)
                    assert p == max(0.0, lvl.p_of_s(k, q + mu_k))
                    tight += 1
    assert tight > 1500  # 1,890 tight users on this grid


def test_public_helpers_at_a_floor_multiplier_are_the_level_at_its_price():
    # homogeneity, F_{c*W}(c*s) = c*F_W(s): at (q, vartheta) the helpers
    # solve the W1 = W level at the price q/(1 + vartheta), with delta and
    # mu scaled by 1 + vartheta.  On the grid above at vartheta = 0.3 they
    # hold to 1e-14 relative in the root s = q + mu (5.8e-15 seen; mu
    # alone, the difference of s and q, to 8.3e-13) and to 1e-15 relative
    # in the power (2.5e-16 seen)
    par = default_system_params()
    vartheta, tight = 0.3, 0
    c = 1.0 + vartheta
    for seed in range(8700, 8740):
        for K in (2, 5, 10):
            Q = 0.0 if seed % 2 == 0 else [0.05 * (k % 2) for k in range(K)]
            scen = generate_scenario(default_geometry(K=K, seed=seed), par, Q=Q)
            for q in (1e3, 3e4, 1e5):
                lvl = qos._Level(qos._Draw(scen), q / c)
                pt = lvl.point()
                for k in lvl.duals(pt.delta)[0]:
                    gamma, mu_k = scen.users[k].gamma, c * pt.mu[k]
                    mu = multiplier_mu(gamma, q, vartheta, c * pt.delta, par)
                    assert abs(mu - mu_k) <= 1e-14 * (q + mu_k)
                    p = power_from_duals(gamma, mu_k, q, vartheta, par)
                    p_lvl = max(0.0, lvl.p_of_s(k, q / c + pt.mu[k]))
                    assert abs(p - p_lvl) <= 1e-15 * p_lvl
                    tight += 1
    assert tight > 1500  # 1,907 tight users


def test_loose_floor_reduces_to_best_effort():
    rng = np.random.default_rng(89)
    for _ in range(6):
        scen = random_scenario(rng, 4, q_mode="zero")
        be = solve_best_effort(scen)
        rep = solve_qos(with_floor(scen, 0.5 * be.throughput))
        assert rep.mode == MODE_QOS
        assert rep.ee == pytest.approx(be.ee, rel=1e-9)


def test_trivial_floor_on_batteries_reproduces_single_user_rule():
    # with initial energy only and a vacuous floor, the converged
    # solution is the best user transmitting at its own optimum
    par = stock_params()
    scen = scenario_from_values(
        par, [0.01, 0.01, 0.01], [2.0, 11.0, 5.0], [0.1, 0.1, 0.1]
    )
    rep, duals, _ = solve_qos_detailed(with_floor(scen, 1.0))
    best = max_user_ee(11.0, par)
    assert rep.ee == pytest.approx(best.ee_star, rel=1e-8)
    assert rep.scheduled == (1,)
    assert rep.alloc.p[1] == pytest.approx(best.p_star, rel=1e-6)
    assert duals.vartheta == 0.0


def test_binding_floor_lands_on_it():
    rng = np.random.default_rng(97)
    hits = 0
    for _ in range(10):
        scen = random_scenario(rng, 3, q_mode="mixed")
        r_star = max_throughput(scen).R_star
        be = solve_best_effort(scen)
        rmin = 0.97 * r_star
        if rmin <= be.throughput:
            continue
        rep, duals, trace = solve_qos_detailed(with_floor(scen, rmin))
        assert rep.mode == MODE_QOS
        assert rep.throughput == pytest.approx(rmin, rel=1e-7)
        assert duals.vartheta > 0.0
        assert rep.ee < be.ee
        assert check_constraints(rep.alloc, with_floor(scen, rmin), tol=1e-6).feasible
        hits += 1
    assert hits >= 5


def test_floor_at_the_rate_ceiling_is_met():
    # once q > 0 the floor multiplier's bracket only reaches R* within
    # the 1e-12 slack, so the floor search has no sign change to find
    rng = np.random.default_rng(109)
    scens = [scenario_from_values(stock_params(Pmax=0.1), [1.0], [1.0])]
    scens += [random_scenario(rng, 3, q_mode=m) for m in ("zero", "mixed", "positive")]
    for scen in scens:
        tight = with_floor(scen, max_throughput(scen).R_star)
        rep = solve_qos(tight)
        assert rep.mode == MODE_QOS
        assert check_constraints(rep.alloc, tight).feasible


def test_dinkelbach_trace_monotone():
    rng = np.random.default_rng(101)
    for _ in range(8):
        scen = random_scenario(rng, 3, q_mode="mixed")
        r_star = max_throughput(scen).R_star
        rep, _, trace = solve_qos_detailed(with_floor(scen, 0.8 * r_star))
        qs = [row[1] for row in trace]
        assert all(b > a for a, b in zip(qs, qs[1:]))
        assert abs(trace[-1][2]) < 1e-8
        assert len(trace) <= 10


def test_cold_T_at_a_converged_floor_is_within_its_relative_bound():
    # K = 2, seed 9004, batteries 0 and 0.05 J, Rmin = 0.999 R*: the loop
    # stops with |T| < 1e-8 along its own path, but T at the reported EE,
    # solved from a cold draw record, reads 9.2e-8; the stop holds cold
    # only relative to B, within 1e-12 of it
    par = default_system_params()
    base = generate_scenario(default_geometry(K=2, seed=9004), par, Q=(0.0, 0.05))
    scen = with_floor(base, 0.999 * max_throughput(base).R_star)
    rep, _, trace = solve_qos_detailed(scen)
    assert rep.iterations["stop"] == "converged" and abs(trace[-1][2]) < 1e-8
    forget_draws()
    T, _ = dinkelbach_T(rep.ee, scen)
    assert 1e-8 < abs(T) <= 1e-12 * rep.throughput


def test_near_ceiling_floor_converges_on_its_binding_point():
    # K = 2, seed 9002, Rmin = 0.999999 R*: the floor binds at row 2, and
    # row 3 reads that point at the new q, where T is -3e-11, so the
    # loop converges there; a fresh floor search at row 3 finds a
    # maximizer whose ratio falls below q, within the inner solve's
    # resolution
    par = default_system_params()
    base = generate_scenario(default_geometry(K=2, seed=9002), par)
    scen = with_floor(base, 0.999999 * max_throughput(base).R_star)
    rep, duals, trace = solve_qos_detailed(scen)
    qs = [row[1] for row in trace]
    assert all(b > a for a, b in zip(qs, qs[1:]))
    assert abs(trace[-1][2]) <= 1e-8
    assert rep.iterations == {"outer": 3, "fills": 0, "stop": "converged"}
    # row 2's allocation, to the bit
    assert rep.alloc.tau0 == 0.14132575951546897
    assert rep.alloc.p == (0.005090612790045177, 0.031600172178261055)
    assert rep.alloc.tau == (0.20962923945502174, 0.6490450010295092)
    assert rep.ee == qs[-1]
    assert check_constraints(rep.alloc, scen, tol=1e-7).feasible
    # its duals, rescaled to the last q: each tight user's root
    W1 = par.W * (1.0 + duals.vartheta)
    cln = W1 * par.varsigma / LN2
    assert duals.q == qs[-1]
    for k in rep.scheduled:
        assert duals.mu[k] > 0.0
        s = duals.q + duals.mu[k]
        resid = _stationarity(s, scen.gamma[k], cln, W1, par.varsigma, par.pc) - duals.delta
        assert abs(resid) <= 1e-6 * W1
    # T at the reported EE, solved again from a cold draw record
    forget_draws()
    T, _ = dinkelbach_T(rep.ee, scen)
    assert abs(T) <= 1e-12 * rep.throughput


def test_dinkelbach_keeps_the_previous_iterate_when_q_stalls(monkeypatch):
    # the stall stop, with an inner solve that hands row 3 the rate
    # ceiling again: its ratio is row 2's q, below row 3's, and its T is
    # far from 0.  The loop stops there and keeps row 2's maximizer,
    # with the duals solved at row 2's q; row 3's T is that iterate's
    # at row 3's q
    par = default_system_params()
    base = generate_scenario(default_geometry(K=2, seed=9002), par)
    scen = with_floor(base, 0.5 * solve_best_effort(base).throughput)
    solved = []
    solve_q = qos._solve_q

    def stalling_solve_q(draw, q, rmin):
        solved.append(solve_q(draw, q, rmin))
        # row 3 gets the rate ceiling, unbound at row 3's own price
        return (solved[0][0], q, 0) if len(solved) == 3 else solved[-1]

    monkeypatch.setattr(qos, "_solve_q", stalling_solve_q)
    rep, duals, trace = solve_qos_detailed(scen)
    qs = [row[1] for row in trace]
    assert rep.iterations == {"outer": 3, "fills": 0, "stop": "stalled"}
    # no row binds: each point is priced at its row's q
    assert [q_eff for _, q_eff, _ in solved] == qs
    kept = solved[1][0]
    assert rep.alloc == kept.alloc and rep.ee == qs[-1] == kept.B / kept.E
    assert trace[-1] == (3, qs[-1], kept.B - qs[-1] * kept.E)
    assert abs(trace[-1][2]) <= 1e-8
    assert duals == DualState(q=qs[-2], vartheta=0.0, delta=kept.delta, mu=kept.mu)


def test_converged_duals_satisfy_kkt():
    rng = np.random.default_rng(103)
    for _ in range(10):
        scen = random_scenario(rng, 4, q_mode="mixed")
        r_star = max_throughput(scen).R_star
        floor = with_floor(scen, 0.9 * r_star)
        rep, duals, _ = solve_qos_detailed(floor)
        par = floor.params
        W1 = par.W * (1.0 + duals.vartheta)
        cln = W1 * par.varsigma / LN2
        total = rep.alloc.tau0 + math.fsum(rep.alloc.tau)
        for k in rep.scheduled:
            s = duals.q + duals.mu[k]
            if duals.mu[k] == 0.0:
                continue  # threshold user: pinned at the scheduling boundary
            resid = (
                W1 * math.log2(scen.gamma[k] * cln / s)
                - (cln - s / scen.gamma[k]) / par.varsigma
                - s * par.pc
                - duals.delta
            )
            assert abs(resid) <= 1e-6 * W1
            # energy exhausted for every tight user
            budget = par.eta * par.Pmax * rep.alloc.tau0 * scen.h[k] + scen.Q[k]
            spend = (rep.alloc.p[k] / par.varsigma + par.pc) * rep.alloc.tau[k]
            assert abs(spend - budget) <= 1e-6 * max(budget, 1e-12)
        # complementary slackness: time price versus block usage
        slack_time = par.Tmax - total
        assert duals.delta * slack_time <= 1e-6 * max(duals.q, 1.0)
        # floor price versus floor slack
        slack_floor = rep.throughput - par.Rmin if par.Rmin else rep.throughput
        if duals.vartheta > 0.0:
            assert abs(slack_floor) <= 1e-6 * max(par.Rmin, 1.0)


def test_slack_time_means_user_optimal_powers():
    # battery-only scenario with room to spare in the block: every
    # scheduled user transmits at its standalone EE-optimal power
    par = stock_params()
    scen = scenario_from_values(par, [0.01, 0.01], [8.0, 6.0], [0.02, 0.02])
    rep, duals, _ = solve_qos_detailed(with_floor(scen, 1.0))
    total = rep.alloc.tau0 + math.fsum(rep.alloc.tau)
    assert total < par.Tmax * (1.0 - 1e-9)
    for k in rep.scheduled:
        p_star = max_user_ee(scen.gamma[k], par).p_star
        assert rep.alloc.p[k] == pytest.approx(p_star, rel=1e-6)


def test_infeasible_floor_reported():
    rng = np.random.default_rng(107)
    scen = random_scenario(rng, 2, q_mode="zero")
    r_star = max_throughput(scen).R_star
    bad = with_floor(scen, 1.5 * r_star)
    rep, duals, trace = solve_qos_detailed(bad)
    assert rep.mode == MODE_INFEASIBLE
    assert rep.ee == 0.0 and trace == []
    with pytest.raises(ValueError):
        dinkelbach_T(0.0, bad)


def test_floor_required():
    rng = np.random.default_rng(109)
    scen = random_scenario(rng, 2, q_mode="zero")
    with pytest.raises(ValueError):
        solve_qos(scen)


def test_k1_matches_grid_oracle():
    # floor above the unconstrained optimum so it genuinely binds
    rng = np.random.default_rng(113)
    for _ in range(5):
        scen = random_scenario(rng, 1, q_mode="zero")
        r_star = max_throughput(scen).R_star
        be = solve_best_effort(scen)
        # deep enough to bind, shallow enough for the grid to reach
        rmin = be.throughput + 0.35 * (r_star - be.throughput)
        floor = with_floor(scen, rmin)
        rep = solve_qos(floor)
        oracle = grid_search_qos(floor, GridSpec(n_tau=120, n_p=90))
        assert oracle.mode == MODE_QOS
        bound = oracle.iterations["resolution_bound_ee"]
        assert rep.ee >= oracle.ee - bound - 1e-9 * max(oracle.ee, 1.0)


def test_floor_sweep_hits_target_through_regimes():
    # walk the floor from loose to nearly the rate ceiling; every
    # binding solve must land on its floor exactly
    par = stock_params()
    scen = scenario_from_values(par, [0.02, 0.01], [9.0, 3.0], [0.15, 0.0])
    r_star = max_throughput(scen).R_star
    be = solve_best_effort(scen)
    for frac in np.linspace(0.05, 0.98, 25):
        rmin = frac * r_star
        rep = solve_qos(with_floor(scen, rmin))
        assert rep.mode == MODE_QOS
        if rmin > be.throughput:
            assert rep.throughput == pytest.approx(rmin, rel=1e-7)
        else:
            assert rep.throughput >= rmin * (1.0 - 1e-9)
        assert rep.ee <= be.ee * (1.0 + 1e-9)


def test_boundary_fills_meet_the_floor():
    # K=10 draws where a schedule member leaves at the gate flip that
    # brackets the floor; the fill must still land on the floor
    floors = (50e3, 120e3, 190e3, 220e3, 245e3, 255e3)
    for seed in (196, 327, 369, 523, 570):
        base = generate_scenario(default_geometry(K=10, seed=seed), default_system_params())
        prev_ee = math.inf
        for rmin in floors:
            scen = with_floor(base, rmin)
            rep = solve_qos(scen)
            assert check_constraints(rep.alloc, scen).feasible, (seed, rmin)
            if rep.mode != MODE_INFEASIBLE:
                assert rep.throughput >= rmin * (1.0 - 1e-12)
            assert rep.ee <= prev_ee * (1.0 + 1e-12)
            prev_ee = rep.ee


def reference_s_root(gamma, q, delta, cln, W1, vs, pc, warm):
    # the KKT root as it was before it ran inline: the same bracket, then
    # newton_bisect on the stationarity function and its slope
    hi = gamma * cln
    if q > 0.0:
        if hi <= q:
            return None
        lo = q
        if _stationarity(lo, gamma, cln, W1, vs, pc) <= delta:
            return None
    else:
        lo = hi * 1e-20
        while _stationarity(lo, gamma, cln, W1, vs, pc) <= delta:
            lo *= 1e-6
    x0 = warm if lo < warm < hi else math.sqrt(lo * hi)
    return newton_bisect(
        lambda s: _stationarity(s, gamma, cln, W1, vs, pc) - delta,
        lambda s: _stationarity_prime(s, gamma, cln, W1, vs, pc),
        lo,
        hi,
        x0,
    )


def record_root(gamma, q, delta, cln, W1, vs, pc, warm):
    # the root of a one-user dual record
    (s,) = _record_roots(
        [0], q, delta, W1, cln, vs, pc, [gamma], [gamma * cln], [1.0 / (gamma * vs)], [warm]
    )
    return s


def test_inline_root_matches_the_newton_bisect_reference():
    # bit for bit on every tight input, over gamma 1e-3..1e8, q = 0 and
    # q > 0, deltas inside the tight region, at its edge and beyond it,
    # and warm starts inside and outside the bracket.  The caller tests
    # tightness, so an input outside the region (the reference answers
    # None) is not handed to _record_roots: multiplier_mu rejects it.
    # At q = 0 a delta of 1e7 puts the root far below the first bracket
    # end, 1e-20 of the right end (about 2e-96 at gamma = 1e6), so that
    # end shrinks by 1e-6 steps.
    par = stock_params()
    vs, pc = par.varsigma, par.pc
    roots = nones = shrunk = 0
    for vartheta in (0.0, 1e-17, 0.7, 4.0):
        W1 = par.W * (1.0 + vartheta)
        cln = W1 * vs / LN2
        for gamma in map(float, np.logspace(-3.0, 8.0, 23)):
            hi = gamma * cln
            for q in (0.0, 1e3, 4e4, 2.5e6):
                if q > 0.0 and hi > q:
                    head = _stationarity(q, gamma, cln, W1, vs, pc)
                    deltas = [head, math.nextafter(head, -math.inf), head + 1.0]
                    deltas += [f * head for f in (0.999, 0.5, 1e-3) if head > 0.0]
                else:
                    deltas = [0.0, 1.0, 1e3, 1e5, 1e7]
                for delta in deltas + [0.0]:
                    for warm in (0.0, 0.5 * (q + hi), math.sqrt(max(q, 1.0) * hi), 2.0 * hi):
                        want = reference_s_root(gamma, q, delta, cln, W1, vs, pc, warm)
                        if want is None:
                            nones += 1
                            reason = "energy-tight" if delta >= 0.0 else "nonnegative"
                            with pytest.raises(ValueError, match=reason):
                                multiplier_mu(gamma, q, vartheta, delta, par)
                            continue
                        got = record_root(gamma, q, delta, cln, W1, vs, pc, warm)
                        assert got == want, (gamma, q, delta, vartheta, warm, got, want)
                        roots += 1
                        shrunk += got < 1e-20 * hi
                        assert q < got < hi or got == q
    assert roots > 1000 and nones > 100 and shrunk > 100


def test_a_record_solves_each_tight_user_as_alone():
    # a dual record of several users, in the order given, leaves each
    # root and warm start as the user's own one-user record does
    par = stock_params()
    vs, pc = par.varsigma, par.pc
    W1 = par.W * 1.7
    cln = W1 * vs / LN2
    gammas = [float(g) for g in np.logspace(-2.0, 6.0, 9)]
    his = [g * cln for g in gammas]
    inv_gvs = [1.0 / (g * vs) for g in gammas]
    for q, delta in ((0.0, 0.0), (0.0, 1e5), (4e4, 0.0), (4e4, 2e3)):
        tight = [k for k, g in enumerate(gammas) if q == 0.0 or score(g, q, 0.7, delta, par) > 0.0]
        tight = tight[::-1]
        warm = [0.5 * (q + hi) if k % 2 else 0.0 for k, hi in enumerate(his)]
        want = [record_root(gammas[k], q, delta, cln, W1, vs, pc, warm[k]) for k in tight]
        got = _record_roots(tight, q, delta, W1, cln, vs, pc, gammas, his, inv_gvs, warm)
        assert len(tight) >= 3 and got == want
        assert [warm[k] for k in tight] == want


def record_levels(monkeypatch):
    # the price q of every KKT level the solver builds, in order, from an
    # empty draw record: the counts must not depend on what an earlier
    # test solved on the same draw
    forget_draws()
    built = []
    point = qos._Level.point

    def recording_point(self):
        built.append(self.q)
        return point(self)

    monkeypatch.setattr(qos._Level, "point", recording_point)
    return built


def test_loose_floor_builds_each_level_once(monkeypatch):
    # seed 8700, K = 10, empty batteries, Rmin = 50 kbit: far below the
    # best-effort throughput, and this draw lands exactly on the floor.
    # Its last floor search brackets the multiplier in [0, 2**-52], where
    # 1 + t rounds to one of two values, so many multipliers share one
    # level; and the gate's q = 0 ceiling is also the first Dinkelbach
    # iterate.
    base = generate_scenario(default_geometry(K=10, seed=8700), default_system_params())
    scen = dataclasses.replace(base, params=dataclasses.replace(base.params, Rmin=50e3))
    built = record_levels(monkeypatch)
    rep = solve_qos(scen)
    assert len(built) == len(set(built))
    assert 0.0 in built
    assert rep.ee == 2550733.3067138353
    assert rep.throughput == 50000.00000000001
    assert rep.iterations == {"outer": 7, "fills": 1, "stop": "converged"}


def test_zero_point_floor_search_brackets_from_the_smallest_multiplier(monkeypatch):
    # seed 8700, K = 10, empty batteries, Rmin = 120 kbit: a loose floor
    # whose last Dinkelbach step starts at the zero point and crosses the
    # floor within a few ulps of the price q/(1 + t) = q.  The bracket
    # doubles up from 2**-52, so the solve builds 8 levels (60 when it
    # halved down from 1) and keeps the answer to the bit.
    built = record_levels(monkeypatch)
    base = generate_scenario(default_geometry(K=10, seed=8700), default_system_params())
    rep = solve_qos(with_floor(base, 120e3))
    assert len(built) <= 10
    assert rep.ee == 2550733.3067138335
    assert rep.throughput == 119999.99999999997
    assert rep.iterations == {"outer": 7, "fills": 1, "stop": "converged"}


def test_k2_probe_fill_keeps_its_multiplier(monkeypatch):
    # the K = 2 layer probe of the benchmark: seed 8700, Rmin = 0.8 R*.
    # Its one boundary fill lies at a price q/(1 + t) a few ulps below q:
    # the solve builds 10 levels (60 when the bracket halved down from 1)
    # and reports the multiplier its price carries: the search's t is 2.5
    # ulps of 1, and 1 + t rounds to 1 + 2 ulps
    built = record_levels(monkeypatch)
    base = generate_scenario(default_geometry(K=2, seed=8700), default_system_params())
    scen = with_floor(base, 0.8 * max_throughput(base).R_star)
    built.clear()
    rep, duals, _ = solve_qos_detailed(scen)
    assert len(built) <= 10
    assert duals.vartheta == 2.0**-51
    assert rep.iterations["fills"] == 1
    assert rep.throughput >= scen.params.Rmin * (1.0 - 1e-12)


def test_second_floor_of_a_draw_builds_only_new_levels(monkeypatch):
    # seed 8700, K = 5: a binding floor at 0.8 R*, then a loose one at
    # 0.6 R* on the same draw.  The second solve builds only the levels
    # the first did not (5 of the 8 a cold solve builds), and its
    # report, duals and trace equal a cold solve's to the bit.
    built = record_levels(monkeypatch)
    base = generate_scenario(default_geometry(K=5, seed=8700), default_system_params())
    r_star = max_throughput(base).R_star
    solve_qos_detailed(with_floor(base, 0.8 * r_star))
    first = set(built)
    built.clear()
    warm = solve_qos_detailed(with_floor(base, 0.6 * r_star))
    second = list(built)

    forget_draws()
    built.clear()
    cold = solve_qos_detailed(with_floor(base, 0.6 * r_star))
    assert second and len(second) == len(set(second))
    assert set(second) == set(built) - first
    assert repr(warm) == repr(cold)


def test_binding_floor_builds_no_level_after_it_binds(monkeypatch):
    # seed 8700, K = 10, Rmin = 220 kbit: the floor first binds at row 4,
    # where the anchor charges, so its search builds no level of its own:
    # every level built is a row's anchor.  Row 5 reads row 4's point,
    # rescaled to its q, and builds no level; the loop still takes 5
    # rows.  The answer agrees with a cold inner solve at the reported EE
    built = record_levels(monkeypatch)
    base = generate_scenario(default_geometry(K=10, seed=8700), default_system_params())
    scen = with_floor(base, 220e3)
    rep, duals, trace = solve_qos_detailed(scen)
    qs = [row[1] for row in trace]
    assert rep.iterations == {"outer": 5, "fills": 0, "stop": "converged"}
    assert len(built) == len(set(built)) and set(built) <= set(qs[:-1])
    assert duals.q == qs[-1] and duals.vartheta > 0.0
    forget_draws()
    T, _ = dinkelbach_T(rep.ee, scen)
    assert abs(T) <= 1e-8


def solve_with_binding_rows(monkeypatch, scen):
    # solve_qos_detailed from a cold draw record, with the floor
    # multiplier q/q_eff - 1 of every row that ran the inner solve
    thetas = []
    solve_q = qos._solve_q

    def recording_solve_q(draw, q, rmin):
        out = solve_q(draw, q, rmin)
        thetas.append(q / out[1] - 1.0 if out[1] < q else 0.0)
        return out

    monkeypatch.setattr(qos, "_solve_q", recording_solve_q)
    forget_draws()
    return solve_qos_detailed(scen), thetas


def test_binding_floor_duals_are_pinned(monkeypatch):
    # seed 8700, K = 10, Rmin = 220 kbit: the floor binds at row 4
    # (vartheta 0.6468...), and row 5 reports that point at its own q,
    # with vartheta, delta and every mu rescaled to it
    base = generate_scenario(default_geometry(K=10, seed=8700), default_system_params())
    (rep, duals, trace), thetas = solve_with_binding_rows(monkeypatch, with_floor(base, 220e3))
    assert thetas == [0.0, 0.0, 0.0, 0.6468278985138016] and len(trace) == 5
    assert rep.iterations == {"outer": 5, "fills": 0, "stop": "converged"}
    assert duals == DualState(
        q=2491843.279702185,
        vartheta=0.6796522978507071,
        delta=149523.50552715565,
        mu=(
            41380366.34201512, 37476674.9266503, 29566829.580947816, 52208205.860946424,
            45611322.377747335, 33759822.996004924, 42955863.28780983, 48573596.36582154,
            41096922.76299522, 33506768.37657844,
        ),
    )


FILLED_FLOORS = [
    # seed 8709, Rmin = 0.999 R*: the floor binds at row 2 on a boundary
    # fill, across which user 5 joins the schedule
    (
        8709,
        0.999,
        102.54055844676431,
        DualState(
            q=402287.91455239075,
            vartheta=122.86309303109688,
            delta=53184234.109667875,
            mu=(
                2077574.698120704, 16584916.400170581, 5231033.447948677, 8532314.647625642,
                550662.1518221413, 0.0, 7887141.8582345415, 3976085.2853772733,
                1805657.4721472599, 894988.5228834876,
            ),
        ),
    ),
    # seed 8747, Rmin = 0.99 R*: likewise, with user 8 joining
    (
        8747,
        0.99,
        17.556661025144905,
        DualState(
            q=370616.4684272576,
            vartheta=28.90477575544185,
            delta=10507220.985618223,
            mu=(
                13218756.705463592, 18840898.952701982, 4534820.215349094, 27803567.52362768,
                28206563.342192657, 4429623.232285128, 21811349.664393164, 7630389.661651615,
                0.0, 28797317.06940431,
            ),
        ),
    ),
]


def test_filled_floor_duals_are_pinned(monkeypatch):
    # K = 10 floors that bind at row 2 on a boundary fill, the anchor
    # charging, so the gate search fills them.  Row 3 reports the fill at
    # its own q: the joining user's multiplier is 0, and every other user
    # keeps hi's, rescaled with delta to row 3's q.  Row 3's q is the EE
    for seed, frac, theta, want in FILLED_FLOORS:
        base = generate_scenario(default_geometry(K=10, seed=seed), default_system_params())
        scen = with_floor(base, frac * max_throughput(base).R_star)
        (rep, duals, trace), thetas = solve_with_binding_rows(monkeypatch, scen)
        assert thetas == [0.0, theta] and len(trace) == 3
        assert rep.iterations == {"outer": 3, "fills": 1, "stop": "converged"}
        assert duals == want
        assert rep.ee == want.q


def missing_gate_search(*args):
    raise qos._GateMiss


@pytest.mark.parametrize("batteries", ["empty", "mixed", "charged"])
def test_gate_search_matches_the_t_search(monkeypatch, batteries):
    # where the anchor at the binding iterate charges, the search over the
    # WET-gate multiplier and the search over vartheta itself, which the
    # gate search falls back to, land on one floor point: EE within 1e-12
    # relative, and both allocations within every constraint at 1e-9.
    # Batteries of 1-50 mJ leave charging worth its time on most draws.
    # Every B a gate probe forms without a level equals, bit for bit, the
    # B of the point a level assembles from the probe's record
    gate_search, searched = qos._gate_search, []
    bracketed, probes = qos._bracketed, []

    def recording_gate_search(*args):
        out = gate_search(*args)  # a miss raises before it is recorded
        searched.append(out)
        return out

    def probe_checking_bracketed(scen, bits, at, lo, hi, rmin):
        seen = {}

        def recording_bits(x):
            seen[x] = bits(x)
            return seen[x]

        out = bracketed(scen, recording_bits, at, lo, hi, rmin)
        if bits.__qualname__.startswith("_gate_search."):
            probes.extend((B, at(x).B) for x, B in seen.items())
        return out

    monkeypatch.setattr(qos, "_bracketed", probe_checking_bracketed)
    rng = np.random.default_rng(30)
    compared = 0
    for _ in range(8):
        K = int(rng.integers(1, 21))
        Q = rng.uniform(1e-3, 0.05, size=K)
        if batteries != "charged":
            Q[:: 1 if batteries == "empty" else 2] = 0.0
        base = random_scenario(rng, K)
        base = scenario_from_values(base.params, base.h, base.gamma, Q)
        r_star = max_throughput(base).R_star
        for frac in (0.3, 0.6, 0.9, 0.99, 0.999):
            scen = with_floor(base, frac * r_star)
            searched.clear()
            monkeypatch.setattr(qos, "_gate_search", recording_gate_search)
            forget_draws()
            gate = solve_qos(scen)
            if not searched:
                continue
            monkeypatch.setattr(qos, "_gate_search", missing_gate_search)
            forget_draws()
            ref = solve_qos(scen)
            assert abs(gate.ee - ref.ee) <= 1e-12 * ref.ee, (batteries, K, frac)
            for rep in (gate, ref):
                assert check_constraints(rep.alloc, scen, tol=1e-9).feasible
            compared += 1
    assert compared >= 20
    assert len(probes) >= 10 * compared
    assert all(B == B_point for B, B_point in probes)


@pytest.mark.parametrize(
    "seed, frac, probes, fills",
    [(8700, 0.85, 9, 0), (FILLED_FLOORS[0][0], FILLED_FLOORS[0][1], 52, 1)],
)
def test_gate_search_builds_no_level_per_probe(monkeypatch, seed, frac, probes, fills):
    # a gate search builds one level for its dual records, and one more
    # for its answer, or two for a fill's pair; its probes build none.
    # K = 10 floors at 0.85 R* (seed 8700) and 0.999 R* (seed 8709, a
    # fill): 10 and 53 levels when each probe built one
    events, levels_at_search = [], []
    init, gate_price, gate_search = qos._Level.__init__, qos._gate_price, qos._gate_search

    def recording_init(self, *args):
        events.append("level")
        init(self, *args)

    def recording_gate_price(*args):
        events.append("probe")
        return gate_price(*args)

    def recording_gate_search(*args):
        events.clear()
        out = gate_search(*args)
        levels_at_search.append((events.count("level"), events.count("probe"), out[2]))
        return out

    monkeypatch.setattr(qos._Level, "__init__", recording_init)
    monkeypatch.setattr(qos, "_gate_price", recording_gate_price)
    monkeypatch.setattr(qos, "_gate_search", recording_gate_search)
    base = generate_scenario(default_geometry(K=10, seed=seed), default_system_params())
    scen = with_floor(base, frac * max_throughput(base).R_star)
    forget_draws()
    solve_qos(scen)
    assert levels_at_search == [(3 if fills else 2, probes, fills)]


def gate_search_fallback(monkeypatch, scen, forced):
    """The detailed solve of scen with `forced` in place of `_gate_search`,
    and the one whose gate search misses at once: both from a cold draw
    record, as reprs."""
    got = []
    for search in (forced, missing_gate_search):
        monkeypatch.setattr(qos, "_gate_search", search)
        forget_draws()
        got.append(repr(solve_qos_detailed(scen)))
    return got


def gate_searched_floor():
    """Seed 8700, K = 10, Rmin = 0.85 R*: a floor the gate search meets."""
    base = generate_scenario(default_geometry(K=10, seed=8700), default_system_params())
    return with_floor(base, 0.85 * max_throughput(base).R_star)


def test_gate_search_falls_back_when_a_probe_overfills_the_block(monkeypatch):
    # no draw was seen to reach this miss.  The gate search is handed a
    # copy of the draw with 1 kJ batteries, whose drains overfill the
    # block at the first probe; solve_qos then answers by the floor
    # multiplier search on the true draw, as after any miss
    scen, gate_search, missed = gate_searched_floor(), qos._gate_search, []

    def overfilling_gate_search(draw, q, rmin, anchor):
        heavy = copy.copy(draw)
        heavy.Q = [1e3] * draw.K
        try:
            return gate_search(heavy, q, rmin, anchor)
        except qos._GateMiss:
            missed.append(q)
            raise

    forced, ref = gate_search_fallback(monkeypatch, scen, overfilling_gate_search)
    assert len(missed) == 1 and forced == ref
    assert check_constraints(solve_qos(scen).alloc, scen).feasible


def test_gate_search_falls_back_on_an_answer_without_a_positive_price(monkeypatch):
    # no draw was seen to reach this miss either: the answer lies between
    # the anchor's and the rate ceiling's gate roots, where the gate
    # prices at or above 0.  Moving it to twice the ceiling's root, where
    # the gate stays shut even at q = 0, leaves a negative price
    scen, bracketed, moved = gate_searched_floor(), qos._bracketed, []

    def overshooting_bracketed(scen, bits, at, lo, hi, rmin):
        x, pt, fills = bracketed(scen, bits, at, lo, hi, rmin)
        if bits.__qualname__.startswith("_gate_search."):
            x = 2.0 * hi
            bits(x)
            moved.append(x)
        return x, pt, fills

    monkeypatch.setattr(qos, "_bracketed", overshooting_bracketed)
    forced, ref = gate_search_fallback(monkeypatch, scen, qos._gate_search)
    assert len(moved) == 1 and forced == ref
    assert check_constraints(solve_qos(scen).alloc, scen).feasible


def test_sweep_floors_solved_cold_match_the_sweep():
    # the six floors of a seed-8700 rmin sweep trial, solved back to back
    # on one draw as the sweep solves them, then each from a cold process
    # state: report, duals and trace agree to the bit
    draw = generate_scenario(default_geometry(K=10, seed=8700), default_system_params())
    floors = [with_floor(draw, r) for r in (50e3, 120e3, 190e3, 220e3, 245e3, 255e3)]
    forget_draws()
    in_sweep = [repr(solve_qos_detailed(scen)) for scen in floors]
    for scen, want in zip(floors, in_sweep):
        forget_draws()
        assert repr(solve_qos_detailed(scen)) == want


SWEEP_FLOORS = (50e3, 120e3, 190e3, 220e3, 245e3, 255e3)


def sweep_trial():
    """The six floors of the seed-8700 K = 10 draw of the rmin sweep."""
    base = generate_scenario(default_geometry(K=10, seed=8700), default_system_params())
    return [with_floor(base, rmin) for rmin in SWEEP_FLOORS]


def test_multipliers_sharing_a_price_share_one_point():
    # two floor multipliers near 2**-52 at which 1 + t rounds to one
    # value: a level reads only its price q/(1 + t), so both get one point
    base = generate_scenario(default_geometry(K=10, seed=8700), default_system_params())
    q = 0.5 * solve_best_effort(base).ee
    t1 = 2.0**-52
    t2 = math.nextafter(t1, 1.0)
    assert q / (1.0 + t1) == q / (1.0 + t2) != q
    draw = qos._Draw(base)
    assert draw.level(q / (1.0 + t1)) is draw.level(q / (1.0 + t2))


def test_sweep_trial_solves_fewer_roots_on_the_same_levels(monkeypatch):
    # the seed-8700 K = 10 trial's six floors from a cold draw record:
    # 6,969 roots when every level climbed its WET gate from 1, 3,569 on
    # 28 levels when floor levels started at their anchor's rung, and
    # 1,760 on 8 levels now that the three floors whose anchors charge
    # (220, 245 and 255 kbit) search the WET-gate multiplier with one dual
    # record per probe; only the search of an uncharged anchor builds a
    # level beside its anchor
    levels = record_levels(monkeypatch)
    roots = count_roots(monkeypatch)
    solves = []  # (q, whether its anchor charges, the levels it built)
    solve_q = qos._solve_q

    def recording_solve_q(draw, q, rmin):
        n = len(levels)
        out = solve_q(draw, q, rmin)
        solves.append((q, draw.points[q].alloc.tau0 > 0.0, levels[n:]))
        return out

    monkeypatch.setattr(qos, "_solve_q", recording_solve_q)
    for scen in sweep_trial():
        solve_qos(scen)
    assert len(levels) == len(set(levels)) == 8
    assert all(set(built) <= {q} for q, charges, built in solves if charges)
    assert any(set(built) - {q} for q, charges, built in solves)
    assert len(roots) <= 1800


def read_by_levels(scen):
    """Each user's (gamma, h, Q): what a KKT level reads of a draw."""
    return [(u.gamma, u.h, u.Q) for u in scen.users]


def test_level_memo_holds_one_draw(monkeypatch):
    # every public entry point shares the draw record, and it keeps only
    # the latest draw: a draw solved again after another is built again
    built = record_levels(monkeypatch)
    par = default_system_params()
    a, b = (generate_scenario(default_geometry(K=3, seed=s), par) for s in (1, 2))
    r_a = max_throughput(a).R_star
    for call, scen in (
        (solve_qos, with_floor(a, 0.5 * r_a)),
        (max_throughput, b),
        (is_feasible, with_floor(a, r_a)),
        (lambda s: dinkelbach_T(1e4, s), b),
    ):
        call(scen)
        assert read_by_levels(qos._latest_draw[1].scen) == read_by_levels(scen)
    built.clear()
    max_throughput(a)
    assert built == [0.0]


def test_rebuilt_scenario_reuses_the_kept_draw(monkeypatch):
    # scenario_from_values back-computes g = gamma * Gamma * sigma2, one
    # ulp off the drawn g of user 1 at seed 1, K = 3.  No level reads g,
    # so the rebuilt scenario is the same draw: its solves build no level
    # and answer as the drawn scenario's do
    par = default_system_params()
    drawn = generate_scenario(default_geometry(K=3, seed=1), par)
    rebuilt = scenario_from_values(par, drawn.h, drawn.gamma, drawn.Q)
    assert rebuilt.users[1].g != drawn.users[1].g
    built = record_levels(monkeypatch)
    r_star = max_throughput(drawn).R_star
    floored = with_floor(drawn, 0.5 * r_star)
    want = solve_qos_detailed(dataclasses.replace(drawn, params=floored.params))
    draw = qos._latest_draw[1]
    assert draw.scen is drawn and built
    built.clear()
    assert max_throughput(rebuilt).R_star == r_star
    assert repr(solve_qos_detailed(floored)) == repr(want)
    assert built == [] and qos._latest_draw[1] is draw


def test_concurrent_solves_on_different_draws_match_serial_ones():
    # four threads, each solving two floors of its own draw, replace one
    # another's draw record at every switch; each must still answer as a
    # cold serial solve does
    par = default_system_params()
    draws = [generate_scenario(default_geometry(K=3, seed=s), par) for s in range(4)]
    jobs = [[with_floor(d, f * max_throughput(d).R_star) for f in (0.9, 0.5)] for d in draws]
    want = []
    for floors in jobs:
        forget_draws()
        want.append([repr(solve_qos_detailed(s)) for s in floors])
    got = [[] for _ in jobs]

    def work(i):
        for _ in range(3):
            got[i].extend(repr(solve_qos_detailed(s)) for s in jobs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [w * 3 for w in want]
    assert qos._latest_draw[1].scen.users in [floors[0].users for floors in jobs]


def ceiling(scen):
    """repr of the rate ceiling and of its q = 0 duals."""
    sol = max_throughput(scen)
    pt = qos._draw(scen).level(0.0)
    return repr((sol, DualState(q=0.0, vartheta=0.0, delta=pt.delta, mu=pt.mu)))


def count_roots(monkeypatch):
    # the (gamma, delta) of every KKT root solved, in order: each dual
    # record adds its tight users'
    roots = []
    record_roots = qos._record_roots

    def recording_record_roots(tight, q, delta, W1, cln, vs, pc, gammas, *rest):
        roots.extend((gammas[k], delta) for k in tight)
        return record_roots(tight, q, delta, W1, cln, vs, pc, gammas, *rest)

    monkeypatch.setattr(qos, "_record_roots", recording_record_roots)
    return roots


PMAX_DBM = (10.0, 20.0, 25.0, 30.0, 35.0, 40.0, 43.0, 50.0, 60.0)
SWEEPS = {
    "Pmax": [dbm_to_watts(x) for x in PMAX_DBM],
    "eta": [0.05, 0.2, 0.4, 0.6, 0.75, 0.9],
    # pc is read by every root: no two of these ceilings share a rung
    "pc": [1e-3, 2e-3, 5e-3, 1e-2, 2e-2],
}


@pytest.mark.parametrize("K", [2, 5, 10])
@pytest.mark.parametrize("q_mode", ["zero", "mixed"])
@pytest.mark.parametrize("axis", list(SWEEPS))
def test_ceilings_swept_over_pmax_or_eta_match_cold_solves(monkeypatch, K, q_mode, axis):
    # the ceilings of one draw share the WET-gate ladder across Pmax and
    # eta, and not across pc; in any sweep order each must equal a cold
    # solve to the bit
    values = SWEEPS[axis]
    base = random_scenario(np.random.default_rng(1000 + K), K, q_mode=q_mode)
    scens = {
        v: scenario_from_values(
            dataclasses.replace(base.params, **{axis: v}), base.h, base.gamma, base.Q
        )
        for v in values
    }
    roots = count_roots(monkeypatch)
    cold = {}
    for v, scen in scens.items():
        forget_draws()
        cold[v] = ceiling(scen)
    cold_roots = len(roots)
    shuffled = list(values)
    random.Random(K).shuffle(shuffled)
    for order in (values, values[::-1], shuffled):
        forget_draws()
        roots.clear()
        assert [ceiling(scens[v]) for v in order] == [cold[v] for v in order]
        if axis == "pc":
            # no rung was shared across roots: as many as the cold solves took
            assert len(roots) == cold_roots
        else:
            # the ladder was shared: fewer roots than the cold solves took
            assert len(roots) < cold_roots
    assert len(qos._latest_draw[1].ladder) > 1


def test_pmax_round_solves_each_ladder_root_once(monkeypatch, tmp_path):
    # the benchmark's pmax_sweep round: K = 5, two trials from seed
    # 8700, six station powers.  Without the shared ladder it solved
    # 1,700 roots; the 12 ceilings and their 364 gate evaluations stay
    levels = record_levels(monkeypatch)
    roots = count_roots(monkeypatch)
    gates = []
    f0_at = qos._Level._f0_at

    def recording_f0_at(self, delta):
        gates.append(delta)
        return f0_at(self, delta)

    monkeypatch.setattr(qos._Level, "_f0_at", recording_f0_at)
    payload = {
        "geometry": {"K": 5},
        "initial_energy_J": 0.0,
        "sweep": {
            "axis": "Pmax_dBm",
            "values": [20, 25, 30, 35, 40, 43],
            "trials": 2,
            "base_seed": 8700,
        },
        "schemes": ["ee_optimal", "throughput_optimal", "fixed_proportion"],
        "rho_list": [1.0],
        "output": str(tmp_path / "out.csv"),
    }
    run_sweep(load_config(cfg_file(tmp_path, payload)))
    assert len(levels) == 12 and len(gates) == 364
    assert len(roots) == 705


def test_concurrent_ceilings_at_different_pmax_match_cold_ones():
    # four threads sweep one draw's ceilings over Pmax in different
    # orders, extending and replacing one another's ladder at every
    # switch; each must still answer as a cold solve does
    base = random_scenario(np.random.default_rng(5), 5, q_mode="mixed")
    scens = [
        scenario_from_values(
            dataclasses.replace(base.params, Pmax=dbm_to_watts(x)), base.h, base.gamma, base.Q
        )
        for x in PMAX_DBM
    ]
    want = []
    for scen in scens:
        forget_draws()
        want.append(ceiling(scen))
    orders = [list(range(len(scens))) for _ in range(4)]
    for i, order in enumerate(orders):
        random.Random(i).shuffle(order)
    got = [[] for _ in orders]

    def work(i):
        for _ in range(3):
            got[i].extend(ceiling(scens[j]) for j in orders[i])

    forget_draws()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(orders))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[want[j] for j in order] * 3 for order in orders]


def test_level_solves_each_root_once_per_delta(monkeypatch):
    # every read of a user's dual at one delta (charging gate, block fit,
    # assembly) must reuse one root, or boundary sign tests can flip
    roots, time_bound = count_roots(monkeypatch), []
    solve_time_bound = qos._Level._solve_time_bound

    def recording_time_bound(self, *args):
        time_bound.append(args)
        return solve_time_bound(self, *args)

    monkeypatch.setattr(qos._Level, "_solve_time_bound", recording_time_bound)

    # empty batteries, q at half the best-effort EE: the charging slot is on
    zero = random_scenario(np.random.default_rng(0), 6, q_mode="zero")
    pt = qos._Level(qos._Draw(zero), 0.5 * solve_best_effort(zero).ee).point()
    assert pt.alloc.tau0 > 0.0 and not time_bound
    assert roots and len(roots) == len(set(roots))

    # mixed batteries at a low q: the drains overfill the block
    roots.clear()
    mixed = random_scenario(np.random.default_rng(0), 6, q_mode="mixed")
    pt = qos._Level(qos._Draw(mixed), 2e4).point()
    assert pt.alloc.tau0 == 0.0 and time_bound and pt.delta > 0.0
    assert roots and len(roots) == len(set(roots))


def test_threshold_gap_solve_is_pinned():
    # mixed batteries, Rmin = 0.7 R*: 7 of the solve's 9 KKT levels
    # land in the gap of the time-bound regime, and so does the answer:
    # user 3 sits at the threshold (mu = 0) with a free slot, no fill
    base = random_scenario(np.random.default_rng(0), 6, q_mode="mixed")
    scen = with_floor(base, 0.7 * max_throughput(base).R_star)
    rep, duals, _ = solve_qos_detailed(scen)
    assert rep.alloc.tau[3] > 0.0 and duals.mu[3] == 0.0
    assert rep.ee == 302666.99567325495
    assert rep.throughput == 71113.11594700713
    assert rep.iterations == {"outer": 4, "fills": 0, "stop": "converged"}


@pytest.mark.parametrize(
    "call",
    [
        lambda p, s: multiplier_mu(1e6, 0.0, 0.0, math.nan, p),
        lambda p, s: multiplier_mu(1e6, math.nan, 0.0, 0.0, p),
        lambda p, s: multiplier_mu(math.inf, 2e4, 0.0, 0.0, p),
        lambda p, s: multiplier_mu(1e6, 2e4, math.inf, 0.0, p),
        lambda p, s: power_from_duals(1e6, math.nan, 2e4, 0.0, p),
        lambda p, s: power_from_duals(1e6, 0.0, 2e4, math.nan, p),
        lambda p, s: kkt_threshold_x(math.nan, 0.0, 0.0, p),
        lambda p, s: kkt_threshold_x(2e4, 0.0, -math.inf, p),
        lambda p, s: f0_wet_gate([1e4, math.nan, 0.0], 3e4, 7.0, s),
        lambda p, s: f0_wet_gate([1e4, 2e4, 0.0], math.inf, 7.0, s),
        lambda p, s: dinkelbach_T(math.nan, s),
        lambda p, s: dinkelbach_T(math.inf, s),
    ],
    ids=[
        "mu-nan-delta-at-q0",
        "mu-nan-q",
        "mu-inf-gamma",
        "mu-inf-vartheta",
        "power-nan-mu",
        "power-nan-vartheta",
        "threshold-nan-q",
        "threshold-inf-delta",
        "gate-nan-mu",
        "gate-inf-q",
        "dinkelbach-nan-q",
        "dinkelbach-inf-q",
    ],
)
def test_dual_helpers_reject_non_finite_inputs(call):
    # each used to raise ZeroDivisionError or RuntimeError, or to return
    # nan, 0.0 or a (nan, zero allocation) pair
    scen = random_scenario(np.random.default_rng(83), 3, q_mode="zero")
    with pytest.raises(ValueError, match="must be finite"):
        call(scen.params, scen)


@pytest.mark.parametrize(
    "call",
    [
        lambda p, s: multiplier_mu(0.0, 0.0, 0.0, 0.0, p),
        lambda p, s: multiplier_mu(-1e6, 0.0, 0.0, 0.0, p),
        lambda p, s: multiplier_mu(1e6, 2e4, -0.5, 0.0, p),
        lambda p, s: multiplier_mu(1e6, 2e4, 0.0, -1.0, p),
        lambda p, s: multiplier_mu(1e6, -5.0, 0.0, 0.0, p),
        lambda p, s: power_from_duals(0.0, 0.0, 2e4, 0.0, p),
        lambda p, s: power_from_duals(1e6, -1.0, 2e4, 0.0, p),
        lambda p, s: power_from_duals(1e6, 0.0, 2e4, -0.5, p),
        lambda p, s: power_from_duals(1e6, 10.0, -5.0, 0.0, p),
        lambda p, s: power_from_duals(1e6, 0.0, 0.0, 0.0, p),
        lambda p, s: kkt_threshold_x(2e4, -1.0, 0.0, p),
        lambda p, s: kkt_threshold_x(2e4, -2.0, 0.0, p),
        lambda p, s: kkt_threshold_x(2e4, 0.0, -1e3, p),
        lambda p, s: f0_wet_gate([1e4, -1.0, 0.0], 3e4, 7.0, s),
        lambda p, s: f0_wet_gate([1e4, 2e4, 0.0], 3e4, -7.0, s),
    ],
    ids=[
        "mu-zero-gamma",
        "mu-negative-gamma",
        "mu-negative-vartheta",
        "mu-negative-delta",
        "mu-negative-q",
        "power-zero-gamma",
        "power-negative-mu",
        "power-negative-vartheta",
        "power-negative-q",
        "power-zero-q-and-mu",
        "threshold-vartheta-minus-one",
        "threshold-vartheta-minus-two",
        "threshold-negative-delta",
        "gate-negative-mu",
        "gate-negative-delta",
    ],
)
def test_dual_helpers_reject_out_of_domain_inputs(call):
    # a zero gamma used to raise ZeroDivisionError, vartheta = -1 and -2
    # ZeroDivisionError and RuntimeError, a negative delta brentq's sign
    # error; the rest returned a number (a negative q that of q = 0)
    scen = random_scenario(np.random.default_rng(83), 3, q_mode="zero")
    with pytest.raises(ValueError, match="must be (positive|nonnegative)"):
        call(scen.params, scen)


@pytest.mark.parametrize(
    "call",
    [
        lambda par: multiplier_mu(1.7e308, 1e5, 0.0, 0.0, par),
        lambda par: multiplier_mu(1e10, 1e5, 1e300, 0.0, par),
        lambda par: kkt_threshold_x(1e5, 1e308, 0.0, par),
        lambda par: power_from_duals(1e6, 0.0, 2e4, 1e308, par),
    ],
    ids=["huge-gamma", "huge-vartheta", "threshold-huge-vartheta", "power-huge-vartheta"],
)
def test_multiplier_rejects_an_overflowing_rate_constant(call):
    # finite inputs whose gamma*W*(1 + vartheta)*varsigma/ln 2 overflows:
    # mu's root bracket has no right end, and mu used to come back inf;
    # the threshold raised ZeroDivisionError and the power returned inf
    with pytest.raises(ValueError, match="rate constant .* overflows"):
        call(stock_params())


@pytest.mark.parametrize(
    "q, vartheta, why",
    [
        (1e-320, 0.0, "underflows to 0"),
        (1e-300, 1e290, "underflows to 0"),
        (1e-280, 0.0, "scores above delta"),
        (1e5, 1e290, "scores above delta"),
    ],
    ids=["tiny-q", "tiny-q-huge-vartheta", "small-q", "huge-vartheta"],
)
def test_threshold_rejects_a_boundary_that_brackets_nothing(q, vartheta, why):
    # where q/cln underflows to 0 the bracket search used to double 0
    # forever, so an alarm turns a hang into a failure; where rounding
    # lifts the score at q/cln above delta brentq raised its own sign error
    def hang(signum, frame):
        raise TimeoutError("kkt_threshold_x did not return within 5 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match=f"no threshold bracket at q = {re.escape(repr(q))}, .*{why}"):
            kkt_threshold_x(q, vartheta, 0.0, stock_params())
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
