"""Rate-floor EE maximization: Dinkelbach iterations over a KKT inner solver.

The fractional objective (bits per joule, subject to a block throughput
floor Rmin) is reduced to the parametric form T(q) = max{B - q*E}: the
outer loop updates q to B/E of the inner maximizer and stops when T
vanishes.  The inner problem is concave; its KKT system collapses to a
small number of scalar roots:

  * per scheduled user, a multiplier s = q + mu_k solving a strictly
    decreasing stationarity function F(s) = delta, which fixes the
    uplink power p_k and the energy-tight slot length;
  * a scheduling score per user, F evaluated at s = q: positive score
    means the user transmits, the common threshold in SNR space is
    where the score crosses delta;
  * a time multiplier delta >= 0 driven by the block-length constraint;
  * a WET gate f0 whose sign decides whether the charging slot is on;
  * a throughput multiplier vartheta >= 0 driven by the floor.

The inner maximizer is assembled from whichever regime the gates pick:
batteries only (delta = 0, no charging), charging with the block fully
used, or no charging with the block fully used.  B as a function of
vartheta is discontinuous exactly where a gate flips; at such a root
the optimal face is a segment between the two bracketing maximizers,
and the solver mixes them to land on the floor exactly.

Every KKT level is built at W1 = W and keyed on its price alone.  The
floor multiplier vartheta enters the inner problem only through
(1 + vartheta)*B - q*E, the W1 = W problem at the price
q/(1 + vartheta), so a binding floor is a search over that price, along
one of two parametrisations.  Where the charging slot is on at q and at
the rate ceiling, the search runs over the WET-gate multiplier delta:
the roots s_k(delta) do not read the price, and the price at which the
gate closes at delta is a closed form in them, so a probe costs one
dual record, its roots solved in one call (`_record_roots`), and the
arithmetic of its B, with no KKT level.  Otherwise it runs over
vartheta, one KKT level at the price q/(1 + vartheta) per probe.  The
reported duals are rescaled once, from the price to the reported q.

The rate ceiling R* (`max_throughput`) is the q = 0 case of the inner
problem: with no energy price every user is scheduled and spends its
whole energy stock, and the charging slot stays on until its marginal
value meets the time multiplier.  The maximum is global, and the power,
energy and time constraints all end up tight.  R* decides feasibility
of a floor (`is_feasible`): Rmin is attainable iff Rmin <= R*, up to
the floor slack of `model._reaches_floor`, which `solve_qos` applies too.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .best_effort import _admission_walk
from .model import (
    LN2,
    MODE_INFEASIBLE,
    MODE_QOS,
    Allocation,
    Scenario,
    SolutionReport,
    SystemParams,
    _reaches_floor,
    _report,
    energy_total,
    throughput,
    with_initial_energy,
    zero_allocation,
)

_FILL_TOL = 1e-9  # relative B residual beyond which a boundary fill engages
_EPS = 1e-8  # Dinkelbach stops once |T(q)| falls below this
_MAX_OUTER = 30  # Dinkelbach iteration cap
_XTOL = 2e-12  # brentq's absolute tolerance on x (scipy's default)
_RTOL = 1e-15  # brentq's relative tolerance on x
_NEWTON_RTOL = 1e-14  # newton_bisect's relative tolerance on x
_NEWTON_MAX_ITER = 100  # newton_bisect's iteration cap


@dataclass(frozen=True)
class DualState:
    """Multipliers of the inner problem at one (q, vartheta) solve."""

    q: float
    vartheta: float
    delta: float
    mu: tuple[float, ...]


def _stationarity(s: float, gamma: float, cln: float, W1: float, vs: float, pc: float) -> float:
    # F(s) on the p > 0 branch; strictly decreasing in s on (0, cln*gamma).
    return W1 * math.log2(gamma * cln / s) - (cln - s / gamma) / vs - s * pc


def _score(gamma: float, q: float, cln: float, W1: float, vs: float, pc: float) -> float:
    # Scheduling score F(q): the user transmits where it exceeds delta.
    if q <= 0.0:
        return math.inf
    if gamma * cln <= q:
        return -q * pc
    return _stationarity(q, gamma, cln, W1, vs, pc)


def _w1_cln(params: SystemParams, vartheta: float, gamma: float = 1.0) -> tuple[float, float]:
    # W1 = W*(1 + vartheta) and cln = W1*varsigma/ln 2 at floor multiplier
    # vartheta; a ValueError where the rate constant gamma*cln overflows.
    W1 = params.W * (1.0 + vartheta)
    cln = W1 * params.varsigma / LN2
    if not math.isfinite(gamma * cln):
        raise ValueError("the rate constant gamma_k*W*(1 + vartheta)*varsigma/ln 2 overflows")
    return W1, cln


def _power(s: float, gamma: float, cln: float) -> float:
    # The uplink power at multiplier s = q + mu (negative past the clamp).
    return cln / s - 1.0 / gamma


def _charging(scen: Scenario) -> tuple[list[float], float]:
    # Per second of charging: user k's harvest eta*Pmax*h_k, the station's net cost.
    par = scen.params
    return [par.eta * par.Pmax * u.h for u in scen.users], par.Pmax * scen.wet_deficit + par.Pc


def _wet_gate(gains: list[float], q: float, wet_cost: float, delta: float) -> float:
    # f0: the fsum of the users' mu_k*harvest_k, less q*wet_cost and delta.
    return math.fsum(gains) - q * wet_cost - delta


def _require_nonnegative(**values: float) -> None:
    """Reject NaN or inf, then negative, arguments of the dual helpers."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    for name, v in values.items():
        if v < 0.0:
            raise ValueError(f"{name} must be nonnegative, got {v!r}")


def kkt_threshold_x(q: float, vartheta: float, delta: float, params: SystemParams) -> float:
    """Scheduling threshold in SNR-coefficient space.

    The unique gamma at which the scheduling score crosses delta; users
    above it transmit.  Defined for q > 0 (at q = 0 every user's score
    is +inf and no finite threshold exists).  A ValueError naming the
    input, before brentq, where the branch boundary q/cln underflows to
    0, rounding lifts the score there above delta, or the score exceeds
    delta only once gamma*cln overflows: no bracket holds a threshold.
    """
    if q <= 0.0:
        raise ValueError("threshold needs q > 0")
    _require_nonnegative(q=q, vartheta=vartheta, delta=delta)
    W1, cln = _w1_cln(params, vartheta)
    vs, pc = params.varsigma, params.pc
    lo = q / cln  # branch boundary: score = -q*pc - delta < 0
    if lo <= 0.0:
        why = "the branch boundary q/cln underflows to 0"
    elif _score(lo, q, cln, W1, vs, pc) > delta:
        why = f"the branch boundary q/cln = {lo!r} scores above delta"
    else:
        hi = _double_until(
            lambda g: _score(g, q, cln, W1, vs, pc) > delta, 2.0 * lo, "scheduling threshold"
        )
        if math.isfinite(hi * cln):
            return brentq(lambda g: _score(g, q, cln, W1, vs, pc) - delta, lo, hi, maxiter=200)
        why = f"gamma*cln overflows at the bracket's end {hi!r}"
    raise ValueError(
        f"no threshold bracket at q = {q!r}, vartheta = {vartheta!r}, delta = {delta!r}: {why}"
    )


def multiplier_mu(gamma_k: float, q: float, vartheta: float, delta: float, params: SystemParams) -> float:
    """Energy multiplier of a scheduled user with tight energy."""
    if gamma_k <= 0.0:
        raise ValueError(f"gamma_k must be positive, got {gamma_k!r}")
    _require_nonnegative(gamma_k=gamma_k, q=q, vartheta=vartheta, delta=delta)
    W1, cln = _w1_cln(params, vartheta, gamma_k)
    vs, pc = params.varsigma, params.pc
    hi = gamma_k * cln
    if not _score(gamma_k, q, cln, W1, vs, pc) > delta:
        raise ValueError("user is outside the energy-tight region (score <= delta)")
    (s,) = _record_roots(
        [0], q, delta, W1, cln, vs, pc, [gamma_k], [hi], [1.0 / (gamma_k * vs)], [0.0]
    )
    return s - q


def power_from_duals(gamma_k: float, mu_k: float, q: float, vartheta: float, params: SystemParams) -> float:
    """Uplink power from the dual variables, clamped at zero."""
    if gamma_k <= 0.0:
        raise ValueError(f"gamma_k must be positive, got {gamma_k!r}")
    _require_nonnegative(gamma_k=gamma_k, mu_k=mu_k, q=q, vartheta=vartheta)
    s = q + mu_k
    if s <= 0.0:
        raise ValueError("q + mu must be positive")
    return max(0.0, _power(s, gamma_k, _w1_cln(params, vartheta, gamma_k)[1]))


def f0_wet_gate(mu: Sequence[float], q: float, delta: float, scen: Scenario) -> float:
    """Marginal value of charging time; its sign gates the WET slot.

    Each second of charging hands user k a budget worth mu_k per joule
    times eta*Pmax*h_k joules, and costs q times the net station drain
    plus delta of block time.
    """
    if len(mu) != scen.K:
        raise ValueError("mu must have one entry per user")
    _require_nonnegative(q=q, delta=delta, **{f"mu[{k}]": m for k, m in enumerate(mu)})
    harvest, wet_cost = _charging(scen)
    return _wet_gate([m * hk for m, hk in zip(mu, harvest)], q, wet_cost, delta)


def _double_until(done, x: float, what: str) -> float:
    """The first of x, 2x, 4x, ... at which done holds; a RuntimeError
    naming what once x overflows to inf.  Multipliers scale with W (delta
    is in bits per second), so no finite cap would serve every W."""
    while not done(x):
        x *= 2.0
        if x == math.inf:
            raise RuntimeError(f"{what} bracket overflow")
    return x


def newton_bisect(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    lo: float,
    hi: float,
    x0: float,
) -> float:
    """Root of f on a bracket [lo, hi] with f(lo), f(hi) of opposite sign.

    Newton steps from x0, falling back to bisection whenever a step
    leaves the bracket or fails to shrink it.  f must be monotone
    enough that the bracket stays valid (callers guarantee strict
    monotonicity).  The bracket shrinks to a relative width of 1e-14,
    within 100 iterations.  The tests' reference for `_record_roots`.
    """
    a, b = lo, hi
    fa = f(a)
    if fa == 0.0:
        return a
    x = min(max(x0, a), b)
    for _ in range(_NEWTON_MAX_ITER):
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
        else:
            b = x
        if b - a <= _NEWTON_RTOL * max(abs(a), abs(b), 1e-300):
            return 0.5 * (a + b)
        d = fprime(x)
        step_ok = d != 0.0
        if step_ok:
            xn = x - fx / d
            step_ok = a < xn < b
        x = xn if step_ok else 0.5 * (a + b)
    return 0.5 * (a + b)


def _value(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if fx != fx:
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


# The solvers here call brentq through this module global, which the
# layer spans in perfbench/spans.py replace.
def brentq(f: Callable[[float], float], a: float, b: float, maxiter: int) -> float:
    """Root of f on [a, b] by Brent's method (Brent 1973, ch. 4).

    An operation-for-operation port of scipy.optimize.brentq (its
    brentq.c) at xtol = 2e-12 and rtol = 1e-15: the same evaluation
    points, the same root to the bit.  Raises ValueError when f is NaN
    or f(a) and f(b) share a sign, RuntimeError after maxiter
    iterations without convergence.
    """
    xpre, xcur = float(a), float(b)
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # f is never NaN and the bracket ends are nonzero here, so a sign
    # test stands in for C's signbit.
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # C divides an underflowed den to inf or NaN, and either
                # fails the acceptance test below: a bisection step.
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den != 0.0 else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _record_roots(
    tight: Sequence[int],
    q: float,
    delta: float,
    W1: float,
    cln: float,
    vs: float,
    pc: float,
    gammas: Sequence[float],
    his: Sequence[float],
    inv_gvs: Sequence[float],
    warm: list[float],
) -> list[float]:
    """The roots of one dual record: for each tight user k, in the order
    given, the unique s in (q, his[k]) with F(s) = delta.  Each root is
    warm-started from warm[k], which it then replaces.

    his[k] = gammas[k]*cln and inv_gvs[k] = 1/(gammas[k]*vs) are the
    user's constants, taken once per draw.  The caller tests tightness:
    for q > 0 the user's score, F(q) as `_score` computes it, must exceed
    delta (`_Level.duals` reads it from the level's heads, `multiplier_mu`
    evaluates it).  Then F(q) is the bracket's positive end; at q = 0 the
    score is +inf and the left end shrinks until F exceeds delta.

    Each root is `newton_bisect` (_NEWTON_RTOL) on F(s) - delta with F
    and F' written out inline: the same operations in the same order, so
    the same doubles, without two Python calls per iteration.
    """
    log2, sqrt = math.log2, math.sqrt
    neg_W1, ln2, rtol = -W1, LN2, _NEWTON_RTOL
    out = []
    for k in tight:
        gamma, hi = gammas[k], his[k]
        if q > 0.0:
            lo = q
        else:
            lo = hi * 1e-20
            for _ in range(60):
                # F(lo) as `_stationarity` forms it: gamma*cln is hi
                if W1 * log2(hi / lo) - (cln - lo / gamma) / vs - lo * pc > delta:
                    break
                lo *= 1e-6
            else:  # pragma: no cover - F blows up as s -> 0+
                raise RuntimeError("failed to bracket the stationarity root")

        # F(lo) > delta, so the bracket's left end is its positive side;
        # and 0 < lo <= a <= b <= hi throughout, so newton_bisect's
        # tolerance scale max(|a|, |b|, 1e-300) is max(b, 1e-300).
        a, b = lo, hi
        x = warm[k]
        if not lo < x < hi:
            x = min(max(sqrt(lo * hi), lo), hi)
        g_inv = inv_gvs[k]
        for _ in range(_NEWTON_MAX_ITER):
            fx = W1 * log2(hi / x) - (cln - x / gamma) / vs - x * pc - delta
            if fx == 0.0:
                break
            if fx > 0.0:
                a = x
            else:
                b = x
            if b - a <= rtol * (b if b > 1e-300 else 1e-300):
                x = 0.5 * (a + b)
                break
            d = neg_W1 / (x * ln2) + g_inv - pc
            if d != 0.0:
                xn = x - fx / d
                if a < xn < b:
                    x = xn
                    continue
            x = 0.5 * (a + b)
        else:
            x = 0.5 * (a + b)
        warm[k] = x
        out.append(x)
    return out


@dataclass(frozen=True)
class _Point:
    """One assembled inner maximizer with its duals and diagnostics.

    Frozen: a draw hands one point to every solve that asks for its
    price q.
    """

    alloc: Allocation
    B: float
    E: float
    delta: float
    mu: tuple[float, ...]

    @classmethod
    def build(
        cls, scen: Scenario, tau0: float, p: Sequence[float], tau: Sequence[float],
        delta: float, mu: Sequence[float],
    ) -> _Point:
        """The point of (tau0, p, tau) at P0 = Pmax, with its B and E."""
        alloc = Allocation(P0=scen.params.Pmax, tau0=tau0, p=tuple(p), tau=tuple(tau))
        return cls(alloc, throughput(alloc, scen), energy_total(alloc, scen), delta, tuple(mu))


class _Draw:
    """One channel draw: the per-user constants its KKT levels read, and
    the points solved on it so far, keyed by price q.

    Every level is at W1 = W, so its cln = W*varsigma/ln 2 and each
    user's gamma*cln are the draw's, taken once.  A level reads neither
    Rmin nor the floor multiplier t: a floor search asks for the price
    q/(1 + t) (`_solve_q`), and every level is built from scratch.  So
    each point depends only on the draw and q and is the same to the bit
    whichever solve first asked for it: every floor of a draw, and the
    rate ceiling, share its levels.  The gate search of a binding floor
    (`_gate_search`) keeps its probes to itself; a probe builds no level,
    only a dual record of the search's own q = 0 level.

    The rate ceiling also climbs the draw's WET-gate ladder, its dual
    records at delta = 0, 1, 2, 4, ... (`_Level.point`).  At q = 0 those
    roots read only `roots`, so `_draw` passes the ladder on to the next
    draw of equal roots: the ceilings of a draw swept over Pmax or eta
    solve each rung once.  A stored rung never changes and is the same to
    the bit whichever ceiling solved it, so the shared ladder only grows.
    """

    def __init__(self, scen: Scenario):
        par = scen.params
        self.scen, self.par, self.K = scen, par, scen.K
        self.vs, self.pc = par.varsigma, par.pc
        self.gammas = tuple(u.gamma for u in scen.users)
        self.inv_gvs = [1.0 / (g * self.vs) for g in self.gammas]
        self.Q = [u.Q for u in scen.users]
        self.harvest, self.wet_cost = _charging(scen)
        self.W, self.cln = par.W, par.W * self.vs / LN2
        # each user's gamma*cln, the right end of its root's bracket
        self.his = [g * self.cln for g in self.gammas]
        if not all(math.isfinite(hi) for hi in self.his):
            raise ValueError(
                f"W = {par.W!r} overflows a user's rate constant gamma*W*varsigma/ln 2"
            )
        self.points: dict[float, _Point] = {}
        # everything a q = 0 root reads
        self.roots = (par.W, self.vs, self.pc, self.gammas)
        self.ladder: dict[float, tuple[list[int], list[float]]] = {}

    def level(self, q: float) -> _Point:
        """The inner maximizer at price q, built on a miss."""
        pt = self.points.get(q)
        if pt is None:
            pt = self.points[q] = _Level(self, q).point()
        return pt

    def reaches(self, rmin: float) -> bool:
        """Feasibility of a floor: the rate ceiling, the q = 0 level,
        reaches it."""
        return _reaches_floor(self.level(0.0).B, rmin)


# The latest draw solved, as (key, draw), the key being what a level
# reads: the scenario's parameters with the floor cleared, plus each
# user's (gamma, h, Q).  The uplink gain g is left out, as no level reads
# it: a scenario rebuilt from (h, gamma, Q) shares the draw even where
# its back-computed g differs in the last bit.  Assigned whole, so a
# solve never reads the points of another draw; two threads that miss
# on one point both build it and store equal points, and two that
# extend one ladder store equal rungs.
_latest_draw: tuple[tuple, _Draw | None] = ((), None)


def _draw(scen: Scenario) -> _Draw:
    """The draw of scen, shared with the latest solve of the same draw;
    each public entry point forms its key once.  A new draw takes over
    the previous draw's ladder when their roots are equal."""
    global _latest_draw
    key = (
        dataclasses.replace(scen.params, Rmin=None),
        tuple((u.gamma, u.h, u.Q) for u in scen.users),
    )
    latest, draw = _latest_draw
    if latest != key:
        prev, draw = draw, _Draw(scen)
        if prev is not None and prev.roots == draw.roots:
            draw.ladder = prev.ladder
        _latest_draw = (key, draw)
    return draw


class _Level:
    """KKT solve of a draw at price q and W1 = W: picks delta and
    assembles the point."""

    def __init__(self, draw: _Draw, q: float):
        self.draw = draw
        self.q = q
        self.heads = [_score(g, q, draw.cln, draw.W, draw.vs, draw.pc) for g in draw.gammas]
        # each tight user's last root, the next root's warm start (0 at first)
        self._warm = [0.0] * draw.K
        # dual record memo keyed on delta: repeat evaluations at one
        # delta must agree bit for bit or boundary sign tests can flip
        self._duals: dict[float, tuple[list[int], list[float]]] = {}
        # the draw's WET-gate ladder, climbed by the rate ceiling only:
        # a floor level's q is a Dinkelbach iterate and never recurs
        self._ladder = draw.ladder if q == 0.0 else None

    def p_of_s(self, k: int, s: float) -> float:
        return _power(s, self.draw.gammas[k], self.draw.cln)

    def D_of_s(self, k: int, s: float) -> float:
        return self.p_of_s(k, s) / self.draw.vs + self.draw.pc

    def duals(self, delta: float) -> tuple[list[int], list[float]]:
        """(tight, s) at delta: the users whose score exceeds delta, in
        ascending order, with their roots s_k.  The drains D_k are not
        stored: the charging gate, the most frequent reader, needs none."""
        rec = self._duals.get(delta)
        if rec is not None:
            return rec
        heads, draw = self.heads, self.draw
        tight = [k for k in range(draw.K) if heads[k] > delta]
        s = _record_roots(
            tight, self.q, delta, draw.W, draw.cln, draw.vs, draw.pc,
            draw.gammas, draw.his, draw.inv_gvs, self._warm,
        )
        rec = self._duals[delta] = (tight, s)
        return rec

    def _f0_at(self, delta: float) -> float:
        tight, s = self.duals(delta)
        q, harvest = self.q, self.draw.harvest
        gains = [(sk - q) * harvest[k] for k, sk in zip(tight, s)]
        return _wet_gate(gains, q, self.draw.wet_cost, delta)

    def _base_at(self, delta: float) -> float:
        tight, s = self.duals(delta)
        Q = self.draw.Q
        return math.fsum(Q[k] / self.D_of_s(k, sk) for k, sk in zip(tight, s))

    def _climb(self, delta: float) -> float:
        """f0 at delta, the next rung of the rate ceiling's WET-gate ladder.

        A rung already on the ladder goes into the memo, and its roots
        become the warm starts, as solving it would leave them; a rung
        above the top is solved and stored.  Other levels climb no ladder.
        """
        ladder = self._ladder
        if ladder is not None:
            rec = ladder.get(delta)
            if rec is None:
                ladder[delta] = self.duals(delta)
            else:
                self._duals[delta] = rec
                warm = self._warm
                for k, sk in zip(*rec):
                    warm[k] = sk
        return self._f0_at(delta)

    def point(self) -> _Point:
        """Pick the delta regime and assemble the inner maximizer.

        The charging gate is open at delta = 0 and tested on the WET-gate
        ladder delta = 1, 2, 4, ...: brentq finds its root in [0, hi],
        hi being the first rung where the gate is shut.  Each record's
        roots are warm-started from the record solved before it.

        At q = 0 the roots read neither Pmax, eta, h nor Q (`_Draw`), so
        a ceiling copies the rungs an earlier ceiling of the same roots
        solved and tests only their f0 signs; it stops at the rung a cold
        climb stops at, with the same memo and warm starts, so brentq and
        the assembly read the same doubles.
        """
        if self._climb(0.0) <= 0.0:
            return self.uncharged_point()

        # Charging pays at delta = 0: find where its gate closes.
        hi = _double_until(lambda d: self._climb(d) <= 0.0, 1.0, "WET gate delta")
        delta_w = brentq(self._f0_at, 0.0, hi, maxiter=200)
        pt = self.charged_point(delta_w)
        return pt if pt is not None else self._solve_time_bound(delta_w)

    def charged_point(self, delta: float) -> _Point | None:
        """The maximizer with the charging slot on, its gate closing at
        delta: the block exactly filled by the tau0 scale.  None where
        the battery drains alone overfill the block (tau0 < 0)."""
        Tmax, harvest = self.draw.par.Tmax, self.draw.harvest
        base = self._base_at(delta)
        if base > Tmax:
            return None
        tight, s = self.duals(delta)
        slope = 1.0 + math.fsum(harvest[k] / self.D_of_s(k, sk) for k, sk in zip(tight, s))
        return self._assemble(delta, (Tmax - base) / slope, free={})

    def uncharged_point(self) -> _Point:
        """The maximizer with the charging slot held off.

        Batteries alone while their drains fit the block (delta = 0),
        otherwise the time-bound regime.
        """
        K = self.draw.K
        if not self.duals(0.0)[0]:
            # Nobody worth scheduling at this q: the zero allocation.
            return _Point(zero_allocation(K), B=0.0, E=0.0, delta=0.0, mu=(0.0,) * K)
        if self._base_at(0.0) <= self.draw.par.Tmax:
            return self._assemble(0.0, 0.0, free={})
        return self._solve_time_bound(0.0)

    def _solve_time_bound(self, delta_lo: float) -> _Point:
        """No charging; raise delta until battery drains fit the block.

        The fit function base(delta) decreases continuously except at
        score values of battery-holding users, where it drops: if the
        target lands in such a gap, that user sits exactly at the
        threshold and its slot length is the free coordinate.
        """
        Tmax, Q, K, heads = self.draw.par.Tmax, self.draw.Q, self.draw.K, self.heads
        jumps = sorted(
            {heads[k] for k in range(K) if Q[k] > 0.0 and delta_lo < heads[k] < math.inf}
        )

        def crossing_inside(lo: float, hi: float) -> _Point:
            d_star = brentq(lambda d: self._base_at(d) - Tmax, lo, hi, maxiter=200)
            return self._assemble(d_star, 0.0, free={})

        cur = delta_lo
        for j in jumps:
            base_r = self._base_at(j)
            droppers = [m for m in range(K) if heads[m] == j and Q[m] > 0.0]
            drop_cap = {m: Q[m] / self.D_of_s(m, self.q) for m in droppers}
            if base_r + math.fsum(drop_cap.values()) <= Tmax:
                return crossing_inside(cur, j)
            if base_r <= Tmax:
                # Land in the gap: threshold users fill the remaining time.
                remaining = Tmax - base_r
                free = {}
                for m in droppers:
                    take = min(drop_cap[m], remaining)
                    if take > 0.0:
                        free[m] = take
                        remaining -= take
                return self._assemble(j, 0.0, free=free)
            cur = j

        hi = _double_until(
            lambda d: self._base_at(d) <= Tmax, 2.0 * max(cur, 1.0), "time-fit delta"
        )
        return crossing_inside(cur, hi)

    def _assemble(self, delta: float, tau0: float, free: dict[int, float]) -> _Point:
        """The point of the dual record at delta, plus free threshold users."""
        draw = self.draw
        tight, s = self.duals(delta)
        p_vec = [0.0] * draw.K
        tau_vec = [0.0] * draw.K
        mu_vec = [0.0] * draw.K
        for k, sk in zip(tight, s):
            tau_vec[k] = (draw.harvest[k] * tau0 + draw.Q[k]) / self.D_of_s(k, sk)
            mu_vec[k] = sk - self.q
            if tau_vec[k] > 0.0:
                p_vec[k] = max(0.0, self.p_of_s(k, sk))
        for m, t in free.items():
            tau_vec[m] = t
            if t > 0.0:
                p_vec[m] = max(0.0, self.p_of_s(m, self.q))
        return _Point.build(draw.scen, tau0, p_vec, tau_vec, delta, mu_vec)


@dataclass(frozen=True)
class ThroughputSolution:
    """Maximum block throughput and an allocation achieving it."""

    R_star: float
    alloc: Allocation


def inner_time_allocation(tau0: float, scen: Scenario) -> tuple[tuple[float, ...], float]:
    """Optimal uplink time split for a given charging time: the q = 0
    level with the charging slot held off, user k owning the stock
    A_k = eta*Pmax*tau0*h_k + Q_k over a block of Tmax - tau0.  R(tau0)
    is the partial maximum of a jointly concave program, hence concave.

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
    pt = _Level(_Draw(stocked), 0.0).uncharged_point()
    return pt.alloc.tau, pt.B


def max_throughput(scen: Scenario) -> ThroughputSolution:
    """Maximize block throughput over (tau0, tau, p) jointly."""
    pt = _draw(scen).level(0.0)
    return ThroughputSolution(R_star=pt.B, alloc=pt.alloc)


def is_feasible(scen: Scenario) -> bool:
    """Whether the required throughput Rmin is attainable at all."""
    if scen.params.Rmin is None:
        raise ValueError("is_feasible needs Rmin set in the system parameters")
    return _draw(scen).reaches(scen.params.Rmin)


def _fill_to_floor(scen: Scenario, lo: _Point, hi: _Point, rmin: float) -> _Point:
    """Construct the floor-exact point on the optimal face at a gate flip.

    lo falls short of the floor and hi overshoots, at adjacent floor
    multipliers.  Both maximize the same concave Lagrangian, so every
    convex mix of their (tau0, tau_k, user energy) does too, and B is
    linear along that segment: the mix at theta = (rmin - B_lo)/(B_hi - B_lo)
    lands on the floor.  A user keeps hi's energy multiplier where its lo
    one is positive (energy-tight on both sides); every other user joins
    at the flip or sits at the threshold, so its multiplier is zero.
    """
    par = scen.params
    theta = (rmin - lo.B) / (hi.B - lo.B)

    def mix(a: float, b: float) -> float:
        return (1.0 - theta) * a + theta * b

    def energy(alloc: Allocation, k: int) -> float:
        return (alloc.p[k] / par.varsigma + par.pc) * alloc.tau[k]

    tau = [mix(t_lo, t_hi) for t_lo, t_hi in zip(lo.alloc.tau, hi.alloc.tau)]
    p = [
        max(0.0, par.varsigma * (mix(energy(lo.alloc, k), energy(hi.alloc, k)) / t - par.pc))
        if t > 0.0
        else 0.0
        for k, t in enumerate(tau)
    ]
    mu = [m if m_lo > 0.0 else 0.0 for m_lo, m in zip(lo.mu, hi.mu)]
    return _Point.build(scen, mix(lo.alloc.tau0, hi.alloc.tau0), p, tau, hi.delta, mu)


def _bracketed(
    scen: Scenario,
    bits: Callable[[float], float],
    at: Callable[[float], _Point],
    lo: float,
    hi: float,
    rmin: float,
) -> tuple[float, _Point, int]:
    """The floor's point on a bracket of a parametrisation along which B
    is nondecreasing: returns (x, point, fill count).

    bits(x) is the memoised B at x, and at(x) the point at an x that
    bits has evaluated; bits(lo) falls short of the floor and bits(hi)
    meets it, up to the slack of `_reaches_floor`.  A floor within that
    slack of bits(hi) has no sign change to bracket, and hi's point is
    the answer.  Otherwise brentq finds the crossing.  Where B jumps over
    the floor (a KKT gate flips), the tightest evaluated pair on either
    side of it is bisected down to float adjacency and filled
    (`_fill_to_floor`); x is then the pair's upper end.  The search reads
    only B: at is called for the answer, or for the fill's pair.
    """
    if bits(hi) < rmin:
        return hi, at(hi), 0

    # the evaluated points pick the fill's bracketing pair
    seen = {lo, hi}

    def gap(x: float) -> float:
        seen.add(x)
        return bits(x) - rmin

    # brentq returns one of the points it evaluated: a memo hit
    x_hat = brentq(gap, lo, hi, maxiter=300)
    if abs(bits(x_hat) - rmin) <= _FILL_TOL * max(rmin, 1.0):
        return x_hat, at(x_hat), 0

    below = max(x for x in seen if not _reaches_floor(bits(x), rmin))
    above = min(x for x in seen if x >= below and _reaches_floor(bits(x), rmin))
    for _ in range(200):
        mid = 0.5 * (below + above)
        if not below < mid < above:
            break
        if _reaches_floor(bits(mid), rmin):
            above = mid
        else:
            below = mid
    return above, _fill_to_floor(scen, at(below), at(above), rmin), 1


def _gate_price(
    s: Sequence[float], harvest: Sequence[float], wet_cost: float, delta: float
) -> float:
    """The price q at which the WET gate closes at delta, given every
    user's root s_k(delta) at W1 = W: the root of

        sum_k (s_k - q)^+ * harvest_k - q*wet_cost = delta.

    The left side is continuous, strictly decreasing and linear between
    consecutive s_k, so walking the roots down from the largest, q is the
    first segment's root that does not fall below the next s_k: best
    effort's admission walk, from num = -delta over den = wet_cost.  The
    root is negative where even q = 0 leaves the gate shut at delta."""
    _, num, den = _admission_walk(s, harvest, -delta, wet_cost)
    return num / den


class _GateMiss(Exception):
    """A gate search that cannot answer its floor: a bracket end short of
    its side of the floor, a probe off the charging face, or an answer at
    a price that is not positive."""


def _gate_search(draw: _Draw, q: float, rmin: float, anchor: _Point) -> tuple[_Point, float, int]:
    """`_solve_q`'s floor search over the WET-gate multiplier delta, for
    an anchor (the level at q) and a rate ceiling that both charge:
    returns (point, price, fill count).

    The probe at delta reads every user's root s_k(delta) from one dual
    record of a q = 0 level, and takes the price q' at which the gate
    closes at delta (`_gate_price`).  The users with s_k > q' are the
    tight ones of the charging point at q', and the probe forms that
    point's drains, tau0 and B in the operation order of
    `_Level.charged_point`, `_Level._assemble` and `model._bits`: the same
    doubles, with no level, allocation or E per probe.  The answer, and a
    fill's pair, are assembled by a level at q' that is handed the
    probe's record, and returned with its price q' and its duals at that
    price.  q' falls as delta rises, so B is nondecreasing over
    [anchor.delta, ceiling.delta], whose ends are the gate roots at q and
    at 0.

    The records come from a level built for this search alone, so the
    answer does not depend on what the draw solved before.  Raises
    `_GateMiss` where a bracket end falls short of its side of the floor,
    a probe's drains overfill the block, or the answer's price is not
    positive or so small that q/q' overflows.
    """
    rec = _Level(draw, 0.0)  # read through duals only: no ladder rung
    K, harvest, wet_cost, Q = draw.K, draw.harvest, draw.wet_cost, draw.Q
    gammas, vs, pc, cln = draw.gammas, draw.vs, draw.pc, draw.cln
    W, Tmax = draw.W, draw.par.Tmax
    log2, fsum = math.log2, math.fsum
    # delta -> (B, price, tight users, their roots)
    probes: dict[float, tuple[float, float, list[int], list[float]]] = {}

    def bits(delta: float) -> float:
        got = probes.get(delta)
        if got is None:
            s = rec.duals(delta)[1]  # at q = 0 every user is tight
            price = _gate_price(s, harvest, wet_cost, delta)
            tight = [k for k in range(K) if s[k] > price]
            st = [s[k] for k in tight]
            D = [(cln / sk - 1.0 / gammas[k]) / vs + pc for k, sk in zip(tight, st)]
            base = fsum(Q[k] / Dk for k, Dk in zip(tight, D))
            if base > Tmax:
                raise _GateMiss
            tau0 = (Tmax - base) / (1.0 + fsum(harvest[k] / Dk for k, Dk in zip(tight, D)))
            B = 0.0
            for k, sk, Dk in zip(tight, st, D):
                tau = (harvest[k] * tau0 + Q[k]) / Dk
                if tau > 0.0:
                    p = max(0.0, cln / sk - 1.0 / gammas[k])
                    B += tau * W * log2(1.0 + p * gammas[k])
            got = probes[delta] = (B, price, tight, st)
        return got[0]

    def at(delta: float) -> _Point:
        _, price, tight, st = probes[delta]
        lvl = _Level(draw, price)
        lvl._duals[delta] = (tight, st)
        return lvl.charged_point(delta)  # not None: the probe's drains fit

    lo, hi = anchor.delta, draw.level(0.0).delta
    # A floor within the slack of the ceiling end (rmin "reaches" its B)
    # may have no sign change to bracket, and that end prices at about 0
    # with a sign that rounding picks: the t-search, which meets such a
    # floor at a finite vartheta, takes every one of them.
    if _reaches_floor(bits(lo), rmin) or _reaches_floor(rmin, bits(hi)):
        raise _GateMiss
    delta, pt, fills = _bracketed(draw.scen, bits, at, lo, hi, rmin)
    price = probes[delta][1]
    if not price > 0.0 or q / price == math.inf:
        raise _GateMiss
    return pt, price, fills


def _solve_q(draw: _Draw, q: float, rmin: float | None) -> tuple[_Point, float, int]:
    """Inner maximizer at fixed q: returns (point, q_eff, fill count).

    The point is the W1 = W maximizer at the price q_eff, with its duals
    at that price.  Where the anchor (the level at q) meets the floor,
    q_eff = q.  Otherwise the floor binds, q_eff < q, and the floor
    multiplier is q/q_eff - 1: where the anchor and the rate ceiling both
    charge, `_gate_search` finds it.  Everywhere else, and where the gate
    search misses, the search runs over the floor multiplier t itself,
    one KKT level at the price q/(1 + t) per probe.

    B as a function of the floor multiplier is nondecreasing (it is a
    subgradient selection of a convex dual function), so a bisection
    invariant B(lo) < Rmin <= B(hi) is safe even across jumps
    (`_bracketed`).  In floating point B can dip within a few ulps of
    q/(1 + t) = q where the WET gate f0 rounds about 0; the fill pair then
    depends on the search path, which moves the answer by at most a few
    ulps.

    Near t = 0 distinct multipliers round 1 + t to one or two values, and
    the bisection of a fill halves its pair down to float adjacency,
    where neighbouring multipliers share a price: the draw solves each
    price once, across this solve and every other floor of the draw.

    A Dinkelbach solve calls this only until the floor binds
    (q_eff < q); the row after carries that point (`solve_qos_detailed`),
    so a solve searches the floor multiplier, and fills, at most once.
    """
    p0 = draw.level(q)
    if rmin is None or _reaches_floor(p0.B, rmin):
        return p0, q, 0
    if p0.alloc.tau0 > 0.0 and draw.level(0.0).alloc.tau0 > 0.0:
        try:
            return _gate_search(draw, q, rmin, p0)
        except _GateMiss:
            pass

    def level(t: float) -> _Point:
        return draw.level(q / (1.0 + t))

    # At the zero point (no bits: empty batteries, q at the best-effort
    # EE, charging gate shut) the floor is crossed within a few ulps of
    # q/(1 + t) = q, so the doubling starts at 2**-52, the smallest power
    # of two that moves 1 + t off 1, rather than halving down from 1.
    start = 2.0**-52 if p0.B == 0.0 else 1.0
    hi_t = _double_until(
        lambda t: _reaches_floor(level(t).B, rmin), start, f"throughput multiplier (q={q!r})"
    )
    # hi_t was solved while doubling, so this is a memo hit
    lo_t = 0.0 if hi_t == start else hi_t / 2.0
    t, pt, fills = _bracketed(draw.scen, lambda t: level(t).B, level, lo_t, hi_t, rmin)
    return pt, q / (1.0 + t), fills


def dinkelbach_T(q: float, scen: Scenario) -> tuple[float, Allocation]:
    """Value and maximizer of the subtractive inner problem at this q."""
    _require_nonnegative(q=q)
    rmin = scen.params.Rmin
    draw = _draw(scen)
    if rmin is not None and not draw.reaches(rmin):
        raise ValueError("scenario cannot meet the throughput floor")
    pt, _, _ = _solve_q(draw, q, rmin)
    return pt.B - q * pt.E, pt.alloc


def solve_qos_detailed(scen: Scenario) -> tuple[SolutionReport, DualState, list[tuple[int, float, float]]]:
    """Full solve returning the report, converged duals, and the
    per-iteration (iteration, q, T) trace.

    The Dinkelbach loop stops when |T| falls below _EPS ("converged"),
    when q stops rising ("stalled"), or after _MAX_OUTER iterations
    ("cap"); the report's iterations name the reason under "stop".  On a
    stall the previous iterate is reported, with its duals and the q it
    was solved at, and the last row's T is that iterate's at the last q.
    The _EPS stop holds along this solve's path only: T at the reported
    q, solved from a cold draw record, can exceed _EPS, and the bound it
    meets is relative, |T| <= 1e-12*B (at most 2.5e-13*B over 523
    binding floors, K = 2 to 20).

    Only the iterates up to the one where the floor binds solve the
    inner problem.  The first whose point is priced below its q
    (`_solve_q`'s q_eff < q), at q_b, fixes the point: it meets Rmin at
    least energy, so the next row, at its ratio q = B/E, is an ordinary
    loop row that reuses it with no inner solve: its T rounds about 0,
    so it converges, or it stalls, q having stopped rising.  The point's
    delta and mu are those of the W1 = W level at q_eff, whichever
    parametrisation `_solve_q` searched, and they are scaled once, here:
    by c = q_duals/q_eff, as F_{c*W}(c*s) = c*F_W(s), where q_duals is
    the reported q, and vartheta = c - 1.  An unbound point is reported
    as solved (c = 1.0).  The point is kept for this solve only, so each
    floor of a draw is solved as it would be alone.
    """
    rmin = scen.params.Rmin
    if rmin is None:
        raise ValueError("solve_qos needs Rmin; use solve_best_effort without a floor")
    draw = _draw(scen)
    if not draw.reaches(rmin):
        report = _report(zero_allocation(scen.K), scen, MODE_INFEASIBLE, {"outer": 0})
        return report, DualState(q=0.0, vartheta=0.0, delta=0.0, mu=(0.0,) * scen.K), []

    q = q_eff = q_at = 0.0  # q_at: the q the current point was solved at
    trace: list[tuple[int, float, float]] = []
    fills_total = 0
    prev: tuple[_Point, float, float] | None = None  # (point, q_eff, q_at) of the last iterate
    stop = "cap"
    for it in range(1, _MAX_OUTER + 1):
        if not q_eff < q_at:  # else the floor bound at the last iterate: reuse its point
            # at q = 0 this is the memoised rate ceiling, which meets the floor
            pt, q_eff, fills = _solve_q(draw, q, rmin)
            fills_total += fills
            q_at = q
        T = pt.B - q * pt.E
        trace.append((it, q, T))
        if abs(T) < _EPS or pt.E <= 0.0:
            stop = "converged"
            break
        if prev is not None and pt.B / pt.E <= q:
            # q stalls: past the inner solve's resolution T reads short of
            # the previous iterate's, whose ratio is q and whose T at q is 0
            # up to rounding.  That iterate is the better one: keep it.
            stop = "stalled"
            trace[-1] = (it, q, prev[0].B - q * prev[0].E)
            break
        prev = (pt, q_eff, q_at)
        q = pt.B / pt.E

    if stop != "converged" or (pt.E <= 0.0 and prev is not None):
        # A stall keeps the previous iterate, and the cap the last one.  So
        # does a zero floor at its fixed point, where the empty allocation
        # has T exactly 0: that iterate is the supporting maximizer and its
        # ratio equals the converged q.
        pt, q_eff, q_at = prev
    q_duals = q_at if stop == "stalled" else q
    c = q_duals / q_eff if q_eff < q_at else 1.0
    iterations = {"outer": len(trace), "fills": fills_total, "stop": stop}
    report = _report(pt.alloc, scen, MODE_QOS, iterations)
    mu = tuple(c * m for m in pt.mu)
    duals = DualState(q=q_duals, vartheta=c - 1.0, delta=c * pt.delta, mu=mu)
    return report, duals, trace


def solve_qos(scen: Scenario) -> SolutionReport:
    """EE-optimal allocation subject to the block throughput floor."""
    report, _, _ = solve_qos_detailed(scen)
    return report
