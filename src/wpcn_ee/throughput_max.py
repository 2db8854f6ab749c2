"""Block-throughput maximization, and the feasibility test built on it.

The rate ceiling R* is the q = 0 case of the concave inner problem that
`qos` solves by KKT: with no energy price every user is scheduled and
spends its whole energy stock, and the charging slot stays on until
its marginal value meets the time multiplier.  The maximum is
global, and the power, energy and time constraints all end up tight.

For a fixed charging time tau0 the same solve with the charging slot
held off gives the best uplink split: user k owns the stock
A_k = eta*Pmax*tau0*h_k + Q_k over a block of Tmax - tau0.  R(tau0) is
the partial maximum of a jointly concave program, hence concave.

R* decides feasibility of a throughput floor: Rmin is attainable iff
Rmin <= R*, up to the floor slack of `model._reaches_floor`, which
`solve_qos` applies too.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .model import Allocation, Scenario, with_initial_energy
from .qos import _Draw, _Level, _draw, _require_nonnegative

# Unused here: bound only for the layer spans in perfbench/spans.py.
from .search import golden_section_max, newton_bisect  # noqa: F401


@dataclass(frozen=True)
class ThroughputSolution:
    """Maximum block throughput and an allocation achieving it."""

    R_star: float
    alloc: Allocation


def inner_time_allocation(tau0: float, scen: Scenario) -> tuple[tuple[float, ...], float]:
    """Optimal uplink time split for a given charging time.

    Returns (tau, R(tau0)).  tau0 at or beyond Tmax leaves no uplink
    time and yields R = 0; a negative or non-finite tau0 is an error.
    Time the users cannot use profitably stays idle rather than being
    forced on them.
    """
    _require_nonnegative(tau0=tau0)
    par = scen.params
    if tau0 >= par.Tmax:
        return (0.0,) * scen.K, 0.0
    stocked = with_initial_energy(
        dataclasses.replace(scen, params=dataclasses.replace(par, Tmax=par.Tmax - tau0)),
        [par.eta * par.Pmax * tau0 * u.h + u.Q for u in scen.users],
    )
    pt = _Level(_Draw(stocked), 0.0, 0.0).uncharged_point()
    return pt.alloc.tau, pt.B


def max_throughput(scen: Scenario) -> ThroughputSolution:
    """Maximize block throughput over (tau0, tau, p) jointly."""
    pt = _draw(scen).level(0.0, 0.0)
    return ThroughputSolution(R_star=pt.B, alloc=pt.alloc)


def is_feasible(scen: Scenario) -> bool:
    """Whether the required throughput Rmin is attainable at all."""
    if scen.params.Rmin is None:
        raise ValueError("is_feasible needs Rmin set in the system parameters")
    return _draw(scen).reaches(scen.params.Rmin)
