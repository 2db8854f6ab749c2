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
    _reaches_floor,
    _report,
    _require_integer,
    zero_allocation,
)
from .user_ee import max_user_ee

_REL_EPS = 1e-12  # grid energy and time slop, relative


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution: points per time axis and per power axis."""

    n_tau: int = 40
    n_p: int = 25

    def __post_init__(self) -> None:
        _require_integer("n_tau", self.n_tau)
        _require_integer("n_p", self.n_p)
        if self.n_tau < 2 or self.n_p < 2:
            raise ValueError("need at least 2 points per axis")


def _axes(scen: Scenario, grid: GridSpec, rmin: float | None):
    """The time axis and one power axis per user.

    A power axis runs geometrically from p*/8 to 8x the user's
    standalone EE-optimal power p*.  Under a floor rmin it reaches at
    least the largest power any grid slot can afford: a slot of at least
    t = t_axis[1] leaves at most Tmax - t of charging, so the user holds
    at most eta*Pmax*(Tmax - t)*h_k + Q_k to spend in t.  Floors near
    the rate ceiling need powers far above 8x p*.
    """
    par = scen.params
    t_axis = np.linspace(0.0, par.Tmax, grid.n_tau)
    p_axes = []
    for u in scen.users:
        p_star = max_user_ee(u.gamma, par).p_star
        hi = 8.0 * p_star
        if rmin is not None:
            slot = float(t_axis[1])
            stock = par.eta * par.Pmax * (par.Tmax - slot) * u.h + u.Q
            hi = max(hi, par.varsigma * (stock / slot - par.pc))
        p_axes.append(np.concatenate(([0.0], np.geomspace(p_star / 8.0, hi, grid.n_p - 1))))
    return t_axis, p_axes


def _check_size(scen: Scenario, grid: GridSpec) -> int:
    n = grid.n_tau ** (1 + scen.K) * grid.n_p**scen.K
    if n > 10**8:
        raise ValueError(f"grid of {n} points exceeds the 1e8 cap")
    return n


def _evaluator(scen: Scenario, t_axis, p_axes):
    """Masked EE of one charging-time slice of the grid, the station at Pmax.

    The uplink arrays do not depend on tau0, so they are built once,
    broadcast over the 2K axes (tau_1..tau_K, p_1..p_K).  ee_at(i, rmin)
    is the EE over those axes at tau0 = t_axis[i], -1 where a constraint
    fails.  Bits and joules follow model._bits' and model._joules' order
    of operations, so that, up to numpy's log2 against math.log2, a
    point's EE here is the EE its report states, and ties rank alike.
    """
    par = scen.params
    slop = 1.0 + _REL_EPS
    mesh = np.ix_(*([t_axis] * scen.K + list(p_axes)))
    taus, powers = mesh[: scen.K], mesh[scen.K :]
    bits = [t * par.W * np.log2(1.0 + p * u.gamma) for t, p, u in zip(taus, powers, scen.users)]
    spends = [t * (p / par.varsigma + par.pc) for t, p in zip(taus, powers)]
    B = sum(bits[1:], bits[0])
    tsum = sum(taus[1:], taus[0])

    def ee_at(i: int, rmin: float | None):
        tau0 = t_axis[i]
        E = sum(spends, par.Pmax * tau0 * scen.wet_deficit + par.Pc * tau0)
        ok = tau0 + tsum <= par.Tmax * slop
        for u, spend_k in zip(scen.users, spends):
            ok = ok & (spend_k <= (par.eta * par.Pmax * tau0 * u.h + u.Q) * slop)
        if rmin is not None:
            ok = ok & _reaches_floor(B, rmin)
        positive = E > 0.0
        ee = np.where(positive, B / np.where(positive, E, 1.0), 0.0)
        return np.where(ok, ee, -1.0)

    return ee_at


def _search(ee_at, n_tau: int, rmin: float | None):
    """Best (ee, index) over the grid, index None if no point is feasible.

    Slices are scanned in tau0 order and a later slice wins only by a
    strict margin, so the winner is the first maximum in C order.
    """
    best_ee = -1.0
    best_idx: tuple[int, ...] | None = None
    for i in range(n_tau):
        ee = ee_at(i, rmin)
        flat = int(np.argmax(ee))
        if ee.flat[flat] > best_ee:
            best_ee = float(ee.flat[flat])
            best_idx = (i,) + tuple(int(j) for j in np.unravel_index(flat, ee.shape))
    return best_ee, best_idx


def _resolution_bound(ee_at, n_tau: int, best_idx: tuple[int, ...], best_ee: float) -> float:
    """Max |EE - EE*| to feasible axis-neighbors of the winning point,
    the floor left out."""
    i, here = best_idx[0], best_idx[1:]
    slices = {j: ee_at(j, None) for j in (i - 1, i, i + 1) if 0 <= j < n_tau}
    neighbors = [slices[j][here] for j in (i - 1, i + 1) if j in slices]
    for ax, n in enumerate(slices[i].shape):
        for j in (here[ax] - 1, here[ax] + 1):
            if 0 <= j < n:
                neighbors.append(slices[i][here[:ax] + (j,) + here[ax + 1 :]])
    return max((abs(float(ee) - best_ee) for ee in neighbors if ee >= 0.0), default=0.0)


def _assemble(
    scen: Scenario, grid: GridSpec, rmin: float | None, mode_hint: str | None
) -> SolutionReport:
    if scen.K > 2:
        raise ValueError("grid oracle supports at most 2 users")
    n_points = _check_size(scen, grid)
    t_axis, p_axes = _axes(scen, grid, rmin)
    ee_at = _evaluator(scen, t_axis, p_axes)
    best_ee, best_idx = _search(ee_at, grid.n_tau, rmin)

    if best_idx is None:
        iterations = {"outer": 1, "grid_points": n_points}
        return _report(zero_allocation(scen.K), scen, MODE_INFEASIBLE, iterations)

    K = scen.K
    tau0 = float(t_axis[best_idx[0]])
    tau = [float(t_axis[best_idx[1 + k]]) for k in range(K)]
    p = [float(p_axes[k][best_idx[1 + K + k]]) for k in range(K)]
    # Zero out powers in unused slots so the report is unambiguous.
    p = [pk if tk > 0.0 else 0.0 for pk, tk in zip(p, tau)]
    alloc = Allocation(P0=scen.params.Pmax, tau0=tau0, p=tuple(p), tau=tuple(tau))

    bound = _resolution_bound(ee_at, grid.n_tau, best_idx, best_ee)
    mode = mode_hint or (MODE_PWPCN if tau0 > 0.0 else MODE_IELCN)
    iterations = {"outer": 1, "grid_points": n_points, "resolution_bound_ee": bound}
    return _report(alloc, scen, mode, iterations)


def grid_search_best_effort(scen: Scenario, grid: GridSpec) -> SolutionReport:
    """Exhaustive EE maximization on the grid, K <= 2, the station at Pmax."""
    return _assemble(scen, grid, rmin=None, mode_hint=None)


def grid_search_qos(scen: Scenario, grid: GridSpec) -> SolutionReport:
    """Grid search restricted to points meeting the throughput floor."""
    if scen.params.Rmin is None:
        raise ValueError("grid_search_qos needs Rmin")
    return _assemble(scen, grid, rmin=scen.params.Rmin, mode_hint=MODE_QOS)
