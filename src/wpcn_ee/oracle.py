"""Brute-force grid search on tiny instances: ground truth for the solvers.

Evaluates system EE on a full product grid over (tau0, tau_k, p_k) for
K <= 2 users, honoring every constraint by masking, and returns the
best grid point together with a resolution bound: the largest EE swing
to a feasible axis-neighbor of the winner.  Agreement tests compare a
solver's EE against the grid EE within that bound instead of a magic
constant.

Deliberately not a production solver; the point is independence from
the closed forms and dual machinery used elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    MODE_IELCN,
    MODE_INFEASIBLE,
    MODE_PWPCN,
    MODE_QOS,
    Allocation,
    Scenario,
    SolutionReport,
    _report,
    zero_allocation,
)
from .user_ee import max_user_ee

_REL_EPS = 1e-12  # grid feasibility slop, relative


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution: points per time axis, per power axis, power cap.

    p_max_search of None means each user's power axis tops out at
    8x its standalone EE-optimal power.
    """

    n_tau: int = 40
    n_p: int = 25
    p_max_search: float | None = None

    def __post_init__(self) -> None:
        if self.n_tau < 2 or self.n_p < 2:
            raise ValueError("need at least 2 points per axis")
        if self.p_max_search is not None and self.p_max_search <= 0.0:
            raise ValueError("p_max_search must be positive")


def _axes(scen: Scenario, grid: GridSpec):
    par = scen.params
    t_axis = np.linspace(0.0, par.Tmax, grid.n_tau)
    p_axes = []
    for u in scen.users:
        p_star = max_user_ee(u.gamma, par).p_star
        hi = grid.p_max_search if grid.p_max_search is not None else 8.0 * p_star
        lo = p_star / 8.0
        if hi <= lo:
            hi = lo * 64.0
        p_axes.append(np.concatenate(([0.0], np.geomspace(lo, hi, grid.n_p - 1))))
    return t_axis, p_axes


def _check_size(scen: Scenario, grid: GridSpec) -> int:
    n = grid.n_tau ** (1 + scen.K) * grid.n_p**scen.K
    if n > 10**8:
        raise ValueError(f"grid of {n} points exceeds the 1e8 cap")
    return n


def _ee_scalar(scen: Scenario, P0: float, tau0: float, tau: list[float], p: list[float]) -> float | None:
    """EE of one grid point, None if infeasible.  Mirrors the array masks."""
    par = scen.params
    if tau0 + sum(tau) > par.Tmax * (1.0 + _REL_EPS):
        return None
    b = 0.0
    e = P0 * tau0 * scen.wet_deficit + par.Pc * tau0
    for k, u in enumerate(scen.users):
        budget = par.eta * P0 * tau0 * u.h + u.Q
        spend = (p[k] / par.varsigma + par.pc) * tau[k]
        if spend > budget * (1.0 + _REL_EPS):
            return None
        b += tau[k] * par.W * np.log2(1.0 + p[k] * u.gamma)
        e += spend
    if e <= 0.0:
        return 0.0
    return float(b / e)


def _resolution_bound(
    scen: Scenario, P0: float, t_axis, p_axes, best_idx: tuple[int, ...], best_ee: float
) -> float:
    """Max |EE - EE*| to feasible axis-neighbors of the winning point."""
    K = scen.K
    axes = [t_axis] + [t_axis] * K + list(p_axes)
    bound = 0.0
    for ax in range(len(best_idx)):
        for step in (-1, 1):
            j = best_idx[ax] + step
            if not 0 <= j < len(axes[ax]):
                continue
            idx = list(best_idx)
            idx[ax] = j
            tau0 = float(axes[0][idx[0]])
            tau = [float(axes[1 + k][idx[1 + k]]) for k in range(K)]
            p = [float(axes[1 + K + k][idx[1 + K + k]]) for k in range(K)]
            ee = _ee_scalar(scen, P0, tau0, tau, p)
            if ee is not None:
                bound = max(bound, abs(ee - best_ee))
    return bound


def _sweep(scen: Scenario, grid: GridSpec, P0: float, rmin: float | None):
    """Shared grid walk.  Returns (best_ee, best_idx) with best_idx None if
    no feasible point meets the throughput floor."""
    par = scen.params
    t_axis, p_axes = _axes(scen, grid)
    K = scen.K
    W = par.W

    rates = [W * np.log2(1.0 + p_axes[k] * scen.users[k].gamma) for k in range(K)]
    drains = [p_axes[k] / par.varsigma + par.pc for k in range(K)]

    best_ee = -1.0
    best_idx: tuple[int, ...] | None = None

    if K == 1:
        t0 = t_axis[:, None, None]
        t1 = t_axis[None, :, None]
        r1 = rates[0][None, None, :]
        d1 = drains[0][None, None, :]
        B = t1 * r1
        spend1 = t1 * d1
        budget1 = par.eta * P0 * t0 * scen.users[0].h + scen.users[0].Q
        E = P0 * t0 * scen.wet_deficit + par.Pc * t0 + spend1
        ok = (t0 + t1 <= par.Tmax * (1.0 + _REL_EPS)) & (
            spend1 <= budget1 * (1.0 + _REL_EPS)
        )
        if rmin is not None:
            ok = ok & (B >= rmin * (1.0 - _REL_EPS))
        ee = np.where(E > 0.0, B / np.where(E > 0.0, E, 1.0), 0.0)
        ee = np.where(ok, ee, -1.0)
        flat = int(np.argmax(ee))
        idx = np.unravel_index(flat, ee.shape)
        if ee[idx] >= 0.0:
            best_ee = float(ee[idx])
            best_idx = tuple(int(i) for i in idx)
    else:
        u1, u2 = scen.users
        t1 = t_axis[:, None, None, None]
        t2 = t_axis[None, :, None, None]
        r1 = rates[0][None, None, :, None]
        r2 = rates[1][None, None, None, :]
        d1 = drains[0][None, None, :, None]
        d2 = drains[1][None, None, None, :]
        B = t1 * r1 + t2 * r2
        spend1 = t1 * d1
        spend2 = t2 * d2
        spend = spend1 + spend2
        tsum = t1 + t2
        for i, tau0 in enumerate(t_axis):
            budget1 = par.eta * P0 * tau0 * u1.h + u1.Q
            budget2 = par.eta * P0 * tau0 * u2.h + u2.Q
            E = P0 * tau0 * scen.wet_deficit + par.Pc * tau0 + spend
            ok = (
                (tau0 + tsum <= par.Tmax * (1.0 + _REL_EPS))
                & (spend1 <= budget1 * (1.0 + _REL_EPS))
                & (spend2 <= budget2 * (1.0 + _REL_EPS))
            )
            if rmin is not None:
                ok = ok & (B >= rmin * (1.0 - _REL_EPS))
            ee = np.where(E > 0.0, B / np.where(E > 0.0, E, 1.0), 0.0)
            ee = np.where(ok, ee, -1.0)
            flat = int(np.argmax(ee))
            idx = np.unravel_index(flat, ee.shape)
            if ee[idx] > best_ee:
                best_ee = float(ee[idx])
                best_idx = (i,) + tuple(int(j) for j in idx)
        if best_ee < 0.0:
            best_idx = None

    return t_axis, p_axes, best_ee, best_idx


def _assemble(
    scen: Scenario, grid: GridSpec, P0: float, rmin: float | None, mode_hint: str | None
) -> SolutionReport:
    n_points = _check_size(scen, grid)
    t_axis, p_axes, best_ee, best_idx = _sweep(scen, grid, P0, rmin)

    if best_idx is None:
        iterations = {"outer": 1, "grid_points": n_points}
        return _report(zero_allocation(scen.K), scen, MODE_INFEASIBLE, iterations)

    K = scen.K
    tau0 = float(t_axis[best_idx[0]])
    tau = [float(t_axis[best_idx[1 + k]]) for k in range(K)]
    p = [float(p_axes[k][best_idx[1 + K + k]]) for k in range(K)]
    # Zero out powers in unused slots so the report is unambiguous.
    p = [pk if tk > 0.0 else 0.0 for pk, tk in zip(p, tau)]
    alloc = Allocation(P0=P0, tau0=tau0, p=tuple(p), tau=tuple(tau))

    bound = _resolution_bound(scen, P0, t_axis, p_axes, best_idx, best_ee)
    if mode_hint is None:
        mode = MODE_PWPCN if tau0 > 0.0 else MODE_IELCN
    else:
        mode = mode_hint
    iterations = {"outer": 1, "grid_points": n_points, "resolution_bound_ee": bound}
    return _report(alloc, scen, mode, iterations)


def grid_search_best_effort(
    scen: Scenario, grid: GridSpec, P0: float | None = None
) -> SolutionReport:
    """Exhaustive EE maximization on the grid, K <= 2.

    P0 defaults to Pmax; passing a smaller value supports sweeps that
    confirm full downlink power is never worse.
    """
    if scen.K > 2:
        raise ValueError("grid oracle supports at most 2 users")
    p0 = scen.params.Pmax if P0 is None else P0
    if p0 > scen.params.Pmax:
        raise ValueError("P0 cannot exceed Pmax")
    return _assemble(scen, grid, p0, rmin=None, mode_hint=None)


def grid_search_qos(scen: Scenario, grid: GridSpec) -> SolutionReport:
    """Grid search restricted to points meeting the throughput floor."""
    if scen.K > 2:
        raise ValueError("grid oracle supports at most 2 users")
    if scen.params.Rmin is None:
        raise ValueError("grid_search_qos needs Rmin")
    return _assemble(scen, grid, scen.params.Pmax, rmin=scen.params.Rmin, mode_hint=MODE_QOS)
