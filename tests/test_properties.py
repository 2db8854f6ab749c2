"""Cross-layer properties over small random scenarios.

Every solver builds its report from its allocation, so the headline
figures must equal the model's accounting bit for bit; every report that
claims feasibility must pass the constraint check; and the floor solver
must agree with best effort where their problems coincide.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from wpcn_ee import (
    MODE_INFEASIBLE,
    baseline_fixed_proportion,
    check_constraints,
    dbm_to_watts,
    energy_total,
    max_throughput,
    scenario_from_values,
    scheduled_set,
    solve_best_effort,
    solve_qos,
    system_ee,
    throughput,
    throughput_report,
    with_initial_energy,
)

from conftest import stock_params

# derandomized: the suite is a gate, so it explores the same examples on
# every run; raise max_examples locally to search wider
PROPERTY_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)
MONOTONE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def scenarios(draw):
    """K = 1-4 users, each with an empty or a charged battery, on a
    station of 20-43 dBm; gammas span the test ranges and real draws."""
    K = draw(st.integers(1, 4))
    par = stock_params(Pmax=dbm_to_watts(draw(st.floats(20.0, 43.0))))
    h_cap = 0.9 / (par.eta * par.xi * K)
    h = draw(st.lists(st.floats(1e-4, h_cap), min_size=K, max_size=K))
    log_gamma = draw(st.lists(st.floats(-0.3, 8.0), min_size=K, max_size=K))
    Q = draw(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 2.0)), min_size=K, max_size=K)
    )
    return scenario_from_values(par, h, [10.0**x for x in log_gamma], Q)


def with_params(scen, **changes):
    return dataclasses.replace(scen, params=dataclasses.replace(scen.params, **changes))


def assert_derived_from_allocation(rep, scen):
    assert rep.ee == system_ee(rep.alloc, scen)
    assert rep.throughput == throughput(rep.alloc, scen)
    assert rep.energy == energy_total(rep.alloc, scen)
    assert rep.scheduled == scheduled_set(rep.alloc)
    if rep.mode != MODE_INFEASIBLE:
        cr = check_constraints(rep.alloc, scen)
        assert cr.feasible, cr


@PROPERTY_SETTINGS
@given(scen=scenarios(), frac=st.one_of(st.none(), st.floats(0.0, 1.2)))
def test_reports_are_their_allocations(scen, frac):
    """Each solver's figures are the accounting of its allocation; a
    floor, when drawn, is a fraction of the rate ceiling."""
    best = solve_best_effort(scen)
    assert_derived_from_allocation(best, scen)
    ceiling = throughput_report(scen)
    assert_derived_from_allocation(ceiling, scen)

    floored = scen if frac is None else with_params(scen, Rmin=frac * ceiling.throughput)
    reports = [throughput_report(floored)]
    if frac is not None:
        reports.append(solve_qos(floored))
    if all(q == 0.0 for q in scen.Q):
        reports.extend(baseline_fixed_proportion(floored, rho) for rho in (0.5, 1.0))
    for rep in reports:
        assert_derived_from_allocation(rep, floored)


@PROPERTY_SETTINGS
@given(scen=scenarios(), frac=st.floats(0.0, 1.2))
def test_floor_solver_against_best_effort(scen, frac):
    """A floor never raises EE above best effort, and a floor at or
    below the best-effort throughput leaves the best-effort EE."""
    best = solve_best_effort(scen)
    qos = solve_qos(with_params(scen, Rmin=frac * best.throughput))
    if qos.mode != MODE_INFEASIBLE:
        assert qos.ee <= best.ee * (1.0 + 1e-9)
    if frac <= 1.0:
        assert abs(qos.ee - best.ee) <= 1e-9 * best.ee


@MONOTONE_SETTINGS
@given(
    scen=scenarios(),
    up=st.floats(1.0, 10.0),
    user=st.integers(0, 3),
    charge=st.floats(1e-4, 1.0),
)
def test_rate_ceiling_is_monotone(scen, up, user, charge):
    """More station power, a longer block or a fuller battery never
    lowers the rate ceiling R*: each keeps every old allocation
    feasible (a shorter charging slot delivers the same energy)."""
    par = scen.params
    r_star = max_throughput(scen).R_star
    k = user % scen.K
    richer = [
        with_params(scen, Pmax=par.Pmax * up),
        with_params(scen, Tmax=par.Tmax * up),
        with_initial_energy(scen, [q + charge if i == k else q for i, q in enumerate(scen.Q)]),
    ]
    for bigger in richer:
        assert max_throughput(bigger).R_star >= r_star * (1.0 - 1e-12)


@MONOTONE_SETTINGS
@given(scen=scenarios(), up=st.floats(1.0, 10.0))
def test_best_effort_ee_is_monotone_in_station_power(scen, up):
    """Scaling the charging slot by Pmax/Pmax' keeps the harvest and
    saves station circuit energy, so best-effort EE never falls with
    Pmax."""
    stronger = with_params(scen, Pmax=scen.params.Pmax * up)
    assert solve_best_effort(stronger).ee >= solve_best_effort(scen).ee * (1.0 - 1e-12)
