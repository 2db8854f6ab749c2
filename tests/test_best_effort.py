"""Best-effort EE: closed forms, greedy scheduling, the mode combiner."""

import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest

from wpcn_ee import best_effort
from wpcn_ee import (
    MODE_IELCN,
    MODE_INFEASIBLE,
    MODE_PWPCN,
    PwpcnConstant,
    check_constraints,
    max_user_ee,
    pwpcn_constant,
    scenario_from_values,
    select_pwpcn_set,
    solve_best_effort,
    solve_ielcn,
    solve_pwpcn,
    system_ee,
)

from conftest import random_scenario, stock_params


def test_constant_by_hand():
    par = stock_params(Pmax=2.0, Pc=0.5, eta=0.9, xi=1.0)
    scen = scenario_from_values(par, [0.05, 0.1], [1.0, 2.0])
    c = pwpcn_constant(scen)
    expected = (0.5 / 2.0 + 1.0 - 0.9 * 0.15) / 0.9
    assert c.C == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize(
    "call",
    [
        lambda: PwpcnConstant(C=math.nan),
        lambda: PwpcnConstant(C=math.inf),
        lambda: select_pwpcn_set([(0.1, 2.0), (0.2, 1.0)], math.nan),
        lambda: select_pwpcn_set([(0.1, 2.0), (0.2, 1.0)], math.inf),
        lambda: select_pwpcn_set([(0.1, 2.0), (0.2, math.nan)], 1.0),
        lambda: select_pwpcn_set([(0.1, 2.0), (-0.2, 1.0)], 1.0),
        lambda: select_pwpcn_set([(math.inf, 2.0), (0.2, 1.0)], 1.0),
        # a valid station power whose Pc/Pmax overflows: C is inf, and the
        # solver, which forms C without pwpcn_constant, must refuse it too
        lambda: solve_best_effort(
            scenario_from_values(stock_params(Pmax=5e-324), [0.05, 0.1], [1e8, 2e8], [0.0, 0.01])
        ),
    ],
    ids=[
        "constant-nan",
        "constant-inf",
        "select-nan-C",
        "select-inf-C",
        "select-nan-ee",
        "select-negative-h",
        "select-inf-h",
        "solver-overflowing-C",
    ],
)
def test_pwpcn_helpers_reject_bad_input(call):
    # each used to be accepted; a NaN C, a NaN ee or a negative h
    # admitted every candidate
    with pytest.raises(ValueError, match="must be positive and finite|must be finite"):
        call()


def test_closed_form_matches_direct_evaluation():
    rng = np.random.default_rng(11)
    for _ in range(40):
        scen = random_scenario(rng, int(rng.integers(1, 7)), q_mode="zero")
        rep = solve_pwpcn(scen)
        assert rep.mode == MODE_PWPCN
        direct = system_ee(rep.alloc, scen)
        assert rep.ee == pytest.approx(direct, rel=1e-12)
        # station always transmits at full power for the whole block
        assert rep.alloc.P0 == scen.params.Pmax
        total = rep.alloc.tau0 + math.fsum(rep.alloc.tau)
        assert total == pytest.approx(scen.params.Tmax, rel=1e-12)
        assert check_constraints(rep.alloc, scen).feasible


def test_scheduled_users_drain_their_harvest():
    rng = np.random.default_rng(5)
    scen = random_scenario(rng, 5, q_mode="zero")
    rep = solve_pwpcn(scen)
    par = scen.params
    for k in rep.scheduled:
        budget = par.eta * par.Pmax * rep.alloc.tau0 * scen.h[k]
        spend = (rep.alloc.p[k] / par.varsigma + par.pc) * rep.alloc.tau[k]
        assert spend == pytest.approx(budget, rel=1e-10)


def test_greedy_matches_exhaustive_small():
    rng = np.random.default_rng(23)
    for _ in range(30):
        K = int(rng.integers(1, 7))
        h = rng.uniform(1e-3, 0.1, size=K)
        ee = rng.uniform(1e3, 1e6, size=K)
        C = float(rng.uniform(0.2, 5.0))
        cands = list(zip(h, ee))
        picked = select_pwpcn_set(cands, C)

        def set_ee(S):
            if not S:
                return 0.0
            num = math.fsum(h[i] * ee[i] for i in S)
            return num / (C + math.fsum(h[i] for i in S))

        best = max(
            (set_ee(S) for r in range(1, K + 1) for S in itertools.combinations(range(K), r)),
            default=0.0,
        )
        assert set_ee(picked) == pytest.approx(best, rel=1e-12)


def test_greedy_admits_by_user_ee_order():
    # admitted users are exactly those whose own EE exceeds the set EE
    h = [0.05, 0.05, 0.05]
    ee = [3000.0, 2000.0, 10.0]
    picked = select_pwpcn_set(list(zip(h, ee)), C=1.0)
    ee_set = sum(h[i] * ee[i] for i in picked) / (1.0 + sum(h[i] for i in picked))
    for i in range(3):
        if i in picked:
            assert ee[i] >= ee_set
        else:
            assert ee[i] <= ee_set


def test_ielcn_single_best_user():
    par = stock_params()
    scen = scenario_from_values(
        par, [0.01, 0.01, 0.01], [1.0, 9.0, 3.0], [0.4, 0.4, 0.4]
    )
    rep = solve_ielcn(scen)
    assert rep.mode == MODE_IELCN
    assert rep.scheduled == (1,)
    assert rep.alloc.tau0 == 0.0 and rep.alloc.P0 == 0.0
    # the winner transmits at its own EE-optimal power
    best = max_user_ee(9.0, par)
    assert rep.alloc.p[1] == pytest.approx(best.p_star, rel=1e-10)
    assert rep.ee == pytest.approx(best.ee_star, rel=1e-10)
    # slot drains the battery unless the block ends first
    drain = 0.4 / (best.p_star / par.varsigma + par.pc)
    assert rep.alloc.tau[1] == pytest.approx(min(drain, par.Tmax), rel=1e-12)


def test_ielcn_tie_prefers_lower_index():
    par = stock_params()
    scen = scenario_from_values(par, [0.01, 0.01], [4.0, 4.0], [0.2, 0.2])
    rep = solve_ielcn(scen)
    assert rep.scheduled == (0,)


def test_ielcn_ee_invariant_to_battery_size():
    # system EE equals the winner's user EE regardless of Q
    par = stock_params()
    for q in (0.01, 0.2, 5.0):
        scen = scenario_from_values(par, [0.01], [6.0], [q])
        rep = solve_ielcn(scen)
        assert rep.ee == pytest.approx(max_user_ee(6.0, par).ee_star, rel=1e-10)
        assert check_constraints(rep.alloc, scen).feasible


def test_infeasible_branches():
    par = stock_params()
    no_wireless = scenario_from_values(par, [0.01], [5.0], [1.0])
    assert solve_pwpcn(no_wireless).mode == MODE_INFEASIBLE
    no_battery = scenario_from_values(par, [0.01], [5.0], [0.0])
    assert solve_ielcn(no_battery).mode == MODE_INFEASIBLE


def test_combiner_takes_the_better_branch():
    rng = np.random.default_rng(41)
    for _ in range(25):
        scen = random_scenario(rng, 4, q_mode="mixed")
        a = solve_pwpcn(scen)
        b = solve_ielcn(scen)
        rep = solve_best_effort(scen)
        assert rep.ee == pytest.approx(max(a.ee, b.ee), rel=1e-12)
        assert rep.iterations["pwpcn_branch_ee"] == a.ee
        assert rep.iterations["ielcn_branch_ee"] == b.ee
        assert check_constraints(rep.alloc, scen).feasible


def test_combiner_pure_populations():
    rng = np.random.default_rng(43)
    z = random_scenario(rng, 3, q_mode="zero")
    assert solve_best_effort(z).mode == MODE_PWPCN
    p = random_scenario(rng, 3, q_mode="positive")
    assert solve_best_effort(p).mode == MODE_IELCN


def test_pwpcn_ee_increases_with_pmax():
    # the constant C shrinks as the power cap grows, so EE grows
    rng = np.random.default_rng(3)
    scen_lo = random_scenario(rng, 4, params=stock_params(Pmax=1.0), q_mode="zero")
    scen_hi = scenario_from_values(
        stock_params(Pmax=10.0), scen_lo.h, scen_lo.gamma
    )
    assert solve_pwpcn(scen_hi).ee > solve_pwpcn(scen_lo).ee


def test_one_user_ee_pass_per_solve(monkeypatch):
    calls = []
    peaks = best_effort.user_ee_peaks

    def counted(gamma, params):
        calls.append(len(gamma))
        return peaks(gamma, params)

    monkeypatch.setattr(best_effort, "user_ee_peaks", counted)
    rng = np.random.default_rng(7)
    for q_mode in ("zero", "positive", "mixed"):
        scen = random_scenario(rng, 6, q_mode=q_mode)
        solve_best_effort(scen)
        assert calls == [6], q_mode
        calls.clear()


def test_best_effort_report_is_the_branch_winners():
    # the combiner's report equals reporting both branches and copying
    # the winner with the branch EEs added, to the bit
    seen = collections.Counter()
    for seed in range(200):
        for q_mode in ("zero", "positive", "mixed"):
            scen = random_scenario(np.random.default_rng(seed), 1 + seed % 8, q_mode=q_mode)
            a, b = solve_pwpcn(scen), solve_ielcn(scen)
            winner = a if a.ee >= b.ee and a.mode != MODE_INFEASIBLE else b
            want = dataclasses.replace(
                winner,
                iterations={**winner.iterations, "pwpcn_branch_ee": a.ee, "ielcn_branch_ee": b.ee},
            )
            rep = solve_best_effort(scen)
            assert rep == want, (seed, q_mode)
            assert list(rep.iterations) == list(want.iterations)
            seen[q_mode, rep.mode] += 1
    # both branches win somewhere in the mixed populations
    assert seen["mixed", MODE_PWPCN] and seen["mixed", MODE_IELCN]
