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
best S is found greedily on descending ee_k.  The closed form only
decides admission: like every report, the branch's reported EE is the
bits over the joules of its allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .model import (
    MODE_IELCN,
    MODE_INFEASIBLE,
    MODE_PWPCN,
    Allocation,
    Scenario,
    SolutionReport,
    _figures,
    _report,
    zero_allocation,
)
from .user_ee import user_ee_peaks

# Unused here: bound only for the layer spans in perfbench/spans.py.
from .user_ee import max_user_ee  # noqa: F401

# Every user's standalone (p_star, ee_star), indexed by user
Peaks = tuple[tuple[float, ...], tuple[float, ...]]
# A branch's allocation, mode and iterations, before it is reported
Branch = tuple[Allocation, str, dict]


@dataclass(frozen=True)
class PwpcnConstant:
    """Fixed-overhead constant of the PWPCN closed form.

    C = (1/eta) * (Pc/Pmax + 1/xi - sum_k eta*h_k), summed over all K
    users: everyone harvests during the charging slot whether or not
    they are later scheduled.
    """

    C: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.C) and self.C > 0.0):
            raise ValueError("C must be positive and finite for an admissible scenario")


def pwpcn_constant(scen: Scenario) -> PwpcnConstant:
    return PwpcnConstant(C=_constant(scen))


def _constant(scen: Scenario) -> float:
    """The PWPCN constant C as a float, checked as PwpcnConstant checks it."""
    par = scen.params
    C = (par.Pc / par.Pmax + scen.wet_deficit) / par.eta
    if not (math.isfinite(C) and C > 0.0):
        raise ValueError("C must be positive and finite for an admissible scenario")
    return C


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

    Returns candidate indices, ascending.  C, every h_k and every
    ee_star_k must be finite, C positive and the rest nonnegative.
    """
    c_val = C.C if isinstance(C, PwpcnConstant) else float(C)
    if not (math.isfinite(c_val) and c_val > 0.0):
        raise ValueError("C must be positive and finite")
    for h_i, ee_i in candidates:
        if not (math.isfinite(h_i) and h_i >= 0.0 and math.isfinite(ee_i) and ee_i >= 0.0):
            raise ValueError(f"candidate (h, ee) = {(h_i, ee_i)!r} must be finite and nonnegative")
    ee, h = [ee_i for _, ee_i in candidates], [h_i for h_i, _ in candidates]
    return tuple(sorted(_admission_walk(ee, h, 0.0, c_val)[0]))


def _admission_walk(
    values: Sequence[float], weights: Sequence[float], num: float, den: float
) -> tuple[list[int], float, float]:
    """The greedy walk behind the PWPCN admission and the WET-gate price.

    Admits indices on descending value, ties in index order, while the
    next value beats the running ratio num/den, each admission adding
    value*weight to num and weight to den.  Returns the admitted indices
    in walk order and the final (num, den).  With den positive and the
    weights nonnegative, an admission never lowers the ratio, so the walk
    stops at its maximum over the prefixes of the order.
    """
    taken: list[int] = []
    for i in sorted(range(len(values)), key=values.__getitem__, reverse=True):
        v = values[i]
        if v * den <= num:  # v <= num/den: stop, all following are weaker
            break
        num += v * weights[i]
        den += weights[i]
        taken.append(i)
    return taken, num, den


def _pwpcn(scen: Scenario, peaks: Peaks) -> Branch:
    """The PWPCN allocation, its mode and iterations, from every user's
    standalone (p_star, ee_star).  The admission walk is
    `select_pwpcn_set`'s, without its argument checks: UserChannel and
    user_ee_peaks already guarantee finite, nonnegative h and ee_star."""
    par, users = scen.params, scen.users
    K = len(users)
    p_star, ee_star = peaks
    cand_users = [k for k, u in enumerate(users) if u.Q == 0.0]
    if not cand_users:
        return zero_allocation(K), MODE_INFEASIBLE, {"outer": 0, "candidates": 0}

    ee, h = [ee_star[k] for k in cand_users], [users[k].h for k in cand_users]
    sched = [cand_users[i] for i in _admission_walk(ee, h, 0.0, _constant(scen))[0]]

    # Energy-exhausting times: tau_k * (p_star/vs + pc) = eta*Pmax*tau0*h_k,
    # scaled so tau0 + sum tau_k = Tmax.
    D = {k: p_star[k] / par.varsigma + par.pc for k in sched}
    ratio = math.fsum(par.eta * par.Pmax * users[k].h / D[k] for k in sched)
    tau0 = par.Tmax / (1.0 + ratio)
    p = [0.0] * K
    tau = [0.0] * K
    for k in sched:
        p[k] = p_star[k]
        tau[k] = par.eta * par.Pmax * tau0 * users[k].h / D[k]
    alloc = Allocation(P0=par.Pmax, tau0=tau0, p=tuple(p), tau=tuple(tau))
    return alloc, MODE_PWPCN, {"outer": 1, "candidates": len(cand_users), "scheduled": len(sched)}


def _ielcn(scen: Scenario, peaks: Peaks) -> Branch:
    """The IELCN allocation, its mode and iterations, from every user's
    standalone (p_star, ee_star)."""
    par, users = scen.params, scen.users
    K = len(users)
    p_star, ee_star = peaks
    cand = [k for k, u in enumerate(users) if u.Q > 0.0]
    if not cand:
        return zero_allocation(K), MODE_INFEASIBLE, {"outer": 0, "candidates": 0}

    # max keeps the first maximum: ties go to the lower user index
    best = max(cand, key=ee_star.__getitem__)
    p_best = p_star[best]
    D = p_best / par.varsigma + par.pc
    t = min(users[best].Q / D, par.Tmax)
    p = [0.0] * K
    tau = [0.0] * K
    p[best] = p_best
    tau[best] = t
    alloc = Allocation(P0=0.0, tau0=0.0, p=tuple(p), tau=tuple(tau))
    return alloc, MODE_IELCN, {"outer": 1, "candidates": len(cand)}


def solve_pwpcn(scen: Scenario) -> SolutionReport:
    """Closed-form optimum over the zero-battery users.

    Station at Pmax for the whole charging slot; scheduled users send
    at their standalone EE-optimal powers and exhaust their harvest;
    tau0 is stretched so the block is fully used (uplink EE does not
    depend on the common scale, and the longest schedule carries the
    most bits).
    """
    alloc, mode, iterations = _pwpcn(scen, user_ee_peaks(scen.gamma, scen.params))
    return _report(alloc, scen, mode, iterations)


def solve_ielcn(scen: Scenario) -> SolutionReport:
    """Single-user optimum over the battery-holding users.

    Only the user with the best standalone EE transmits, at its
    EE-optimal power, until its battery or the block runs out; the
    station stays silent.  System EE equals that user's ee_star
    regardless of the time truncation (both bits and joules scale
    with tau).
    """
    alloc, mode, iterations = _ielcn(scen, user_ee_peaks(scen.gamma, scen.params))
    return _report(alloc, scen, mode, iterations)


def solve_best_effort(scen: Scenario) -> SolutionReport:
    """Max-combine the PWPCN and IELCN branches, one of which is always
    feasible (every user is in exactly one); ties go to PWPCN.

    One user-EE pass serves both branches, the figures of each are
    taken once, and only the winner is reported."""
    peaks = user_ee_peaks(scen.gamma, scen.params)
    a, b = _pwpcn(scen, peaks), _ielcn(scen, peaks)
    fig_a, fig_b = _figures(a[0], scen), _figures(b[0], scen)
    ee_a, ee_b = fig_a[2], fig_b[2]
    (alloc, mode, iterations), figures = (
        (a, fig_a) if ee_a >= ee_b and a[1] != MODE_INFEASIBLE else (b, fig_b)
    )
    iterations = {**iterations, "pwpcn_branch_ee": ee_a, "ielcn_branch_ee": ee_b}
    return _report(alloc, scen, mode, iterations, figures)
