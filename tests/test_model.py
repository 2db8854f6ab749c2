"""Core accounting: units, invariants, and constraint checking."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wpcn_ee import (
    Allocation,
    Scenario,
    SolutionReport,
    SystemParams,
    UserChannel,
    check_constraints,
    db_to_linear,
    dbm_to_watts,
    energy_total,
    scenario_from_values,
    scheduled_set,
    system_ee,
    throughput,
    with_initial_energy,
    zero_allocation,
)

from conftest import stock_params


def test_unit_conversions():
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)
    assert dbm_to_watts(43.0) == pytest.approx(19.952623149688797)
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(7.0) == pytest.approx(5.011872336272722)


def test_params_validation():
    for bad, message in (
        ({"W": 0.0}, "bandwidth must be positive"),
        ({"sigma2": 0.0}, "noise power must be positive"),
        ({"sigma2": -1e-14}, "noise power must be positive"),
        ({"eta": 1.5}, "eta must lie in"),
        ({"Gamma": 0.5}, "SNR gap must be >= 1"),
        ({"Pc": -0.1}, "Pc must be nonnegative"),
        ({"pc": 0.0}, "pc must be positive"),
        ({"Pmax": 0.0}, "Pmax must be positive"),
        ({"Tmax": 0.0}, "Tmax must be positive"),
        ({"Tmax": -1.0}, "Tmax must be positive"),
        ({"Rmin": -1.0}, "Rmin must be nonnegative"),
    ):
        with pytest.raises(ValueError, match=message):
            stock_params(**bad)
    assert stock_params(Rmin=0.0).Rmin == 0.0
    for name in ("W", "sigma2", "eta", "Pc", "pc", "Pmax", "Tmax", "Rmin"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                stock_params(**{name: bad})


def test_non_finite_channels_and_batteries_rejected():
    par = stock_params()
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            scenario_from_values(par, [0.01, bad], [1.0, 2.0])
        with pytest.raises(ValueError):
            scenario_from_values(par, [0.01, 0.02], [bad, 2.0])
        with pytest.raises(ValueError):
            UserChannel(h=0.01, g=bad, Q=0.0, gamma=1.0)
        scen = scenario_from_values(par, [0.01, 0.02], [1.0, 2.0])
        with pytest.raises(ValueError):
            with_initial_energy(scen, [0.1, bad])
        with pytest.raises(ValueError):
            with_initial_energy(scen, bad)


def test_channel_and_scenario_validation():
    par = stock_params()
    for bad, message in (
        ({"h": 0.0}, "channel gains must be positive"),
        ({"g": -1e-8}, "channel gains must be positive"),
        ({"Q": -0.1}, "initial energy must be nonnegative"),
        ({"gamma": 0.0}, "gamma must be positive"),
    ):
        with pytest.raises(ValueError, match=message):
            UserChannel(**{"h": 0.01, "g": 1e-8, "Q": 0.0, "gamma": 1.0, **bad})
    with pytest.raises(ValueError, match="scenario needs at least one user"):
        Scenario(params=par, users=())
    with pytest.raises(ValueError, match="h and gamma must have equal length"):
        scenario_from_values(par, [0.01, 0.02], [1.0])


def test_gamma_consistency_enforced():
    par = stock_params()
    good = UserChannel.from_gains(h=0.01, g=1e-8, Q=0.0, params=par)
    assert good.gamma == pytest.approx(1e-8 / (par.Gamma * par.sigma2))
    bad = UserChannel(h=0.01, g=1e-8, Q=0.0, gamma=good.gamma * 2)
    with pytest.raises(ValueError):
        Scenario(params=par, users=(bad,))


def test_admissibility_guard():
    par = stock_params(eta=0.9, xi=1.0)
    # harvest sum at 1/xi exactly is rejected: WET would be free energy
    h = 1.0 / (par.eta * 2)
    with pytest.raises(ValueError):
        scenario_from_values(par, [h, h], [1.0, 1.0])
    ok = scenario_from_values(par, [h * 0.99, h * 0.99], [1.0, 1.0])
    assert ok.wet_deficit > 0.0


def test_cached_harvest_sum_leaves_equality_and_hash_alone():
    par = stock_params()
    scen = scenario_from_values(par, [0.01, 0.02], [1.0, 2.0])
    fresh = scenario_from_values(par, [0.01, 0.02], [1.0, 2.0])
    assert scen.wet_deficit == 1.0 / par.xi - par.eta * math.fsum([0.01, 0.02])
    assert scen == fresh and hash(scen) == hash(fresh)
    # a replaced scenario sums its own users, not the cached ones
    other = dataclasses.replace(scen, params=dataclasses.replace(par, eta=0.5))
    assert other.harvest_sum == 0.5 * math.fsum([0.01, 0.02]) != scen.harvest_sum


def test_throughput_and_energy_by_hand():
    par = stock_params(W=1e3, pc=1e-2)
    scen = scenario_from_values(par, [0.01, 0.02], [2.0, 4.0], [0.0, 0.3])
    alloc = Allocation(P0=10.0, tau0=0.2, p=(1.0, 0.5), tau=(0.3, 0.4))
    b_hand = 0.3 * 1e3 * math.log2(1 + 1.0 * 2.0) + 0.4 * 1e3 * math.log2(1 + 0.5 * 4.0)
    assert throughput(alloc, scen) == pytest.approx(b_hand, rel=1e-15)
    deficit = 1.0 / par.xi - par.eta * (0.01 + 0.02)
    e_hand = 10.0 * 0.2 * deficit + par.Pc * 0.2 + (1.0 + 1e-2) * 0.3 + (0.5 + 1e-2) * 0.4
    assert energy_total(alloc, scen) == pytest.approx(e_hand, rel=1e-15)
    assert system_ee(alloc, scen) == pytest.approx(b_hand / e_hand, rel=1e-15)


def test_zero_throughput_gives_zero_ee():
    par = stock_params()
    scen = scenario_from_values(par, [0.01], [1.0])
    alloc = Allocation(P0=par.Pmax, tau0=0.5, p=(0.0,), tau=(0.0,))
    assert throughput(alloc, scen) == 0.0
    assert energy_total(alloc, scen) > 0.0
    assert system_ee(alloc, scen) == 0.0


def test_bookkeeping_rejects_a_user_count_mismatch():
    scen = scenario_from_values(stock_params(), [0.01, 0.02, 0.03], [1.0, 2.0, 3.0])
    alloc = Allocation(P0=1.0, tau0=0.2, p=(0.1, 0.1), tau=(0.3, 0.3))
    for fn in (throughput, energy_total, system_ee, check_constraints):
        with pytest.raises(ValueError, match="allocation has 2 users, scenario has 3"):
            fn(alloc, scen)


def test_allocation_validation():
    z = zero_allocation(3)
    with pytest.raises(ValueError):
        Allocation(P0=-1.0, tau0=0.0, p=(0.0,), tau=(0.0,))
    with pytest.raises(ValueError):
        Allocation(P0=0.0, tau0=-0.1, p=(0.0,), tau=(0.0,))
    with pytest.raises(ValueError):
        Allocation(P0=0.0, tau0=0.0, p=(0.0, 0.0), tau=(0.0,))
    for p, tau in (((-0.1, 0.0), (0.2, 0.2)), ((0.1, 0.1), (0.2, -1e-3))):
        with pytest.raises(ValueError, match="powers and times must be nonnegative"):
            Allocation(P0=1.0, tau0=0.1, p=p, tau=tau)
    with pytest.raises(ValueError, match="unknown mode 'QoS'"):
        SolutionReport(
            alloc=z, ee=0.0, throughput=0.0, energy=0.0, scheduled=(), mode="QoS", iterations={}
        )
    assert z.K == 3 and z.tau0 == 0.0


def test_scheduled_set_is_tau_positive():
    alloc = Allocation(P0=1.0, tau0=0.1, p=(0.5, 0.0, 0.2), tau=(0.2, 0.0, 0.1))
    assert scheduled_set(alloc) == (0, 2)


def test_check_constraints_flags_each_violation():
    par = stock_params(Pmax=1.0, Tmax=1.0)
    scen = scenario_from_values(par, [0.01, 0.01], [5.0, 5.0], [0.0, 0.1])
    # generous budgets: P0 well below the cap, short slots
    ok = Allocation(P0=0.5, tau0=0.5, p=(0.0, 0.1), tau=(0.0, 0.2))
    rep = check_constraints(ok, scen)
    assert rep.feasible and rep.worst <= 1e-9

    over_power = Allocation(P0=1.5, tau0=0.5, p=(0.0, 0.1), tau=(0.0, 0.2))
    assert not check_constraints(over_power, scen).feasible

    over_time = Allocation(P0=0.5, tau0=0.7, p=(0.0, 0.1), tau=(0.0, 0.4))
    assert not check_constraints(over_time, scen).feasible

    # user 0 has no budget at tau0 = 0 but still burns circuit power
    over_energy = Allocation(P0=0.0, tau0=0.0, p=(0.5, 0.0), tau=(0.3, 0.0))
    assert not check_constraints(over_energy, scen).feasible


def test_check_constraints_throughput_floor():
    par = stock_params(Rmin=1e9)
    scen = scenario_from_values(par, [0.01], [5.0], [0.5])
    alloc = Allocation(P0=0.0, tau0=0.0, p=(0.1,), tau=(0.5,))
    rep = check_constraints(alloc, scen)
    assert rep.c6_throughput is not None
    assert not rep.feasible


def test_with_initial_energy_scalar_and_list():
    par = stock_params()
    scen = scenario_from_values(par, [0.01, 0.02], [1.0, 2.0])
    s1 = with_initial_energy(scen, 0.7)
    assert s1.Q == (0.7, 0.7)
    s2 = with_initial_energy(scen, [0.1, 0.2])
    assert s2.Q == (0.1, 0.2)
    # channel data carried over unchanged
    assert s2.h == scen.h and s2.gamma == scen.gamma


@given(
    p=st.floats(min_value=0.0, max_value=10.0),
    tau=st.floats(min_value=0.0, max_value=0.5),
    tau0=st.floats(min_value=0.0, max_value=0.5),
)
def test_energy_nonnegative_and_monotone_in_tau0(p, tau, tau0):
    par = stock_params()
    scen = scenario_from_values(par, [0.01], [5.0], [1.0])
    alloc = Allocation(P0=par.Pmax, tau0=tau0, p=(p,), tau=(tau,))
    e = energy_total(alloc, scen)
    assert e >= 0.0
    bigger = Allocation(P0=par.Pmax, tau0=tau0 + 0.1, p=(p,), tau=(tau,))
    assert energy_total(bigger, scen) >= e
