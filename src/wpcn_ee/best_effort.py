"""Best-effort system EE: the two-branch decomposition without a rate floor.

The unconstrained optimum is achieved either by pure wireless charging
(PWPCN branch: only zero-battery users transmit, powered by the
station) or by a single battery-holding user spending its own energy
with the station silent (IELCN branch).  Mixing the two can always be
undone without losing EE, so the solver runs both branches and keeps
the better one.

PWPCN has a closed form: with the station at full power and every
scheduled user transmitting at its own EE-optimal power until its
harvest is spent, the system EE of a set S is

    EE(S) = sum_{k in S} h_k ee_k / (C + sum_{k in S} h_k),

where C bundles the fixed overheads (circuit power, amplifier loss,
re-harvested fraction) and ee_k is the user's standalone optimum.  The
best S is found greedily on descending ee_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    MODE_IELCN,
    MODE_INFEASIBLE,
    MODE_PWPCN,
    Allocation,
    Scenario,
    SolutionReport,
    energy_total,
    system_ee,
    throughput,
    zero_allocation,
)
from .user_ee import user_ee_peaks

# Unused here: bound only for the layer spans in perfbench/spans.py.
from .user_ee import max_user_ee  # noqa: F401


@dataclass(frozen=True)
class PwpcnConstant:
    """Fixed-overhead constant of the PWPCN closed form.

    C = (1/eta) * (Pc/Pmax + 1/xi - sum_k eta*h_k), summed over all K
    users: everyone harvests during the charging slot whether or not
    they are later scheduled.
    """

    C: float

    def __post_init__(self) -> None:
        if self.C <= 0.0:
            raise ValueError("C must be positive for an admissible scenario")


def pwpcn_constant(scen: Scenario) -> PwpcnConstant:
    par = scen.params
    return PwpcnConstant(C=(par.Pc / par.Pmax + scen.wet_deficit) / par.eta)


def select_pwpcn_set(
    candidates: Sequence[tuple[float, float]], C: PwpcnConstant | float
) -> tuple[int, ...]:
    """Pick the EE-maximizing subset of zero-battery candidates.

    candidates are (h_k, ee_star_k) pairs.  Greedy on descending
    ee_star: admit while the next candidate beats the running EE(S).
    Admitting such a candidate always raises EE(S) and the sort order
    makes the stopping point globally optimal, so the result satisfies
    the fixed point: scheduled users have ee_star >= EE(S*), skipped
    ones <= EE(S*).  Ties in ee_star admit in index order.

    Returns candidate indices, ascending.
    """
    c_val = C.C if isinstance(C, PwpcnConstant) else float(C)
    if c_val <= 0.0:
        raise ValueError("C must be positive")
    order = sorted(range(len(candidates)), key=lambda i: (-candidates[i][1], i))
    num = 0.0
    den = c_val
    taken: list[int] = []
    for i in order:
        h_i, ee_i = candidates[i]
        if ee_i * den <= num:  # ee_i <= EE(S): stop, all following are weaker
            break
        num += h_i * ee_i
        den += h_i
        taken.append(i)
    return tuple(sorted(taken))


def _pwpcn_set_ee(
    candidates: Sequence[tuple[float, float]], idx: Sequence[int], c_val: float
) -> float:
    num = math.fsum(candidates[i][0] * candidates[i][1] for i in idx)
    den = c_val + math.fsum(candidates[i][0] for i in idx)
    return num / den


def solve_pwpcn(scen: Scenario) -> SolutionReport:
    """Closed-form optimum over the zero-battery users.

    Station at Pmax for the whole charging slot; scheduled users send
    at their standalone EE-optimal powers and exhaust their harvest;
    tau0 is stretched so the block is fully used (uplink EE does not
    depend on the common scale, and the longest schedule carries the
    most bits).
    """
    par = scen.params
    cand_users = [k for k in range(scen.K) if scen.users[k].Q == 0.0]
    if not cand_users:
        return SolutionReport(
            alloc=zero_allocation(scen.K),
            ee=0.0,
            throughput=0.0,
            energy=0.0,
            scheduled=(),
            mode=MODE_INFEASIBLE,
            iterations={"outer": 0, "candidates": 0},
        )

    const = pwpcn_constant(scen)
    p_arr, ee_arr = user_ee_peaks([scen.users[k].gamma for k in cand_users], par)
    p_star = dict(zip(cand_users, p_arr.tolist()))
    candidates = [(scen.users[k].h, ee) for k, ee in zip(cand_users, ee_arr.tolist())]
    chosen = select_pwpcn_set(candidates, const)
    sched = tuple(cand_users[i] for i in chosen)
    ee_closed = _pwpcn_set_ee(candidates, chosen, const.C)

    # Energy-exhausting times: tau_k * (p_star/vs + pc) = eta*Pmax*tau0*h_k,
    # scaled so tau0 + sum tau_k = Tmax.
    D = {k: p_star[k] / par.varsigma + par.pc for k in sched}
    ratio = math.fsum(par.eta * par.Pmax * scen.users[k].h / D[k] for k in sched)
    tau0 = par.Tmax / (1.0 + ratio)
    p = [0.0] * scen.K
    tau = [0.0] * scen.K
    for k in sched:
        p[k] = p_star[k]
        tau[k] = par.eta * par.Pmax * tau0 * scen.users[k].h / D[k]
    alloc = Allocation(P0=par.Pmax, tau0=tau0, p=tuple(p), tau=tuple(tau))

    return SolutionReport(
        alloc=alloc,
        ee=ee_closed,
        throughput=throughput(alloc, scen),
        energy=energy_total(alloc, scen),
        scheduled=sched,
        mode=MODE_PWPCN,
        iterations={"outer": 1, "candidates": len(cand_users), "scheduled": len(sched)},
    )


def solve_ielcn(scen: Scenario) -> SolutionReport:
    """Single-user optimum over the battery-holding users.

    Only the user with the best standalone EE transmits, at its
    EE-optimal power, until its battery or the block runs out; the
    station stays silent.  System EE equals that user's ee_star
    regardless of the time truncation (both bits and joules scale
    with tau).
    """
    par = scen.params
    cand = [k for k in range(scen.K) if scen.users[k].Q > 0.0]
    if not cand:
        return SolutionReport(
            alloc=zero_allocation(scen.K),
            ee=0.0,
            throughput=0.0,
            energy=0.0,
            scheduled=(),
            mode=MODE_INFEASIBLE,
            iterations={"outer": 0, "candidates": 0},
        )

    p_arr, ee_arr = user_ee_peaks([scen.users[k].gamma for k in cand], par)
    # argmax takes the first maximum: ties go to the lower user index
    i = int(np.argmax(ee_arr))
    best = cand[i]
    p_best = float(p_arr[i])
    D = p_best / par.varsigma + par.pc
    t = min(scen.users[best].Q / D, par.Tmax)
    p = [0.0] * scen.K
    tau = [0.0] * scen.K
    p[best] = p_best
    tau[best] = t
    alloc = Allocation(P0=0.0, tau0=0.0, p=tuple(p), tau=tuple(tau))
    return SolutionReport(
        alloc=alloc,
        ee=system_ee(alloc, scen),
        throughput=throughput(alloc, scen),
        energy=energy_total(alloc, scen),
        scheduled=(best,),
        mode=MODE_IELCN,
        iterations={"outer": 1, "candidates": len(cand)},
    )


def solve_best_effort(scen: Scenario) -> SolutionReport:
    """Max-combine the PWPCN and IELCN branches; ties go to PWPCN."""
    a = solve_pwpcn(scen)
    b = solve_ielcn(scen)
    if a.mode == MODE_INFEASIBLE and b.mode == MODE_INFEASIBLE:
        raise AssertionError("unreachable: every user is in exactly one branch")
    winner = a if a.ee >= b.ee and a.mode != MODE_INFEASIBLE else b
    extra = dict(winner.iterations)
    extra["pwpcn_branch_ee"] = a.ee
    extra["ielcn_branch_ee"] = b.ee
    return SolutionReport(
        alloc=winner.alloc,
        ee=winner.ee,
        throughput=winner.throughput,
        energy=winner.energy,
        scheduled=winner.scheduled,
        mode=winner.mode,
        iterations=extra,
    )
