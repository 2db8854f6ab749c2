"""Domain types and exact bookkeeping for wireless powered networks.

The setting: a power station broadcasts energy on the downlink (wireless
energy transfer), K user terminals harvest it or draw on an initial
battery charge, and an information receiver collects their uplink
transmissions in time division.  A transmission block of length Tmax is
split into a charging slot tau0 and per-user slots tau_k.

Everything here is a pure function of its inputs.  Units are SI
throughout (watts, seconds, hertz, joules, bits); dB-scale quantities
are converted once at configuration time and never enter the solvers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Sequence

LN2 = math.log(2.0)

MODE_PWPCN = "PWPCN"
MODE_IELCN = "IELCN"
MODE_QOS = "QOS"
MODE_INFEASIBLE = "INFEASIBLE"
_MODES = (MODE_PWPCN, MODE_IELCN, MODE_QOS, MODE_INFEASIBLE)


def dbm_to_watts(dbm: float) -> float:
    """Convert a power from dBm to watts."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


def db_to_linear(db: float) -> float:
    """Convert a dB ratio to linear scale."""
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class SystemParams:
    """Static system-level parameters.

    W          uplink bandwidth in Hz
    sigma2     receiver noise power in W
    Gamma      SNR gap of the modulation scheme, linear, >= 1
    eta        harvester conversion efficiency, in (0, 1]
    xi         power-station amplifier efficiency, in (0, 1]
    varsigma   user amplifier efficiency, in (0, 1]
    Pc         power-station circuit power in W
    pc         per-user circuit power in W, > 0
    Pmax       downlink transmit power limit in W
    Tmax       block length in s
    Rmin       required block throughput in bits, or None for best effort
    """

    W: float
    sigma2: float
    Gamma: float
    eta: float
    xi: float
    varsigma: float
    Pc: float
    pc: float
    Pmax: float
    Tmax: float
    Rmin: float | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite")
        if self.W <= 0.0:
            raise ValueError("bandwidth must be positive")
        if self.sigma2 <= 0.0:
            raise ValueError("noise power must be positive")
        if self.Gamma < 1.0:
            raise ValueError("SNR gap must be >= 1 in linear scale")
        for name in ("eta", "xi", "varsigma"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.Pc < 0.0:
            raise ValueError("Pc must be nonnegative")
        if self.pc <= 0.0:
            raise ValueError("pc must be positive")
        if self.Pmax <= 0.0:
            raise ValueError("Pmax must be positive")
        if self.Tmax <= 0.0:
            raise ValueError("Tmax must be positive")
        if self.Rmin is not None and self.Rmin < 0.0:
            raise ValueError("Rmin must be nonnegative when given")


@dataclass(frozen=True)
class UserChannel:
    """Per-user channel state and initial battery energy.

    h      downlink power gain (station -> user)
    g      uplink power gain (user -> receiver)
    Q      initial energy in J
    gamma  effective uplink SNR per watt, g / (Gamma * sigma2)
    """

    h: float
    g: float
    Q: float
    gamma: float

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.h)
            and math.isfinite(self.g)
            and math.isfinite(self.Q)
            and math.isfinite(self.gamma)
        ):
            raise ValueError("channel gains, gamma and initial energy must be finite")
        if self.h <= 0.0 or self.g <= 0.0:
            raise ValueError("channel gains must be positive")
        if self.Q < 0.0:
            raise ValueError("initial energy must be nonnegative")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")

    @classmethod
    def from_gains(cls, h: float, g: float, Q: float, params: SystemParams) -> "UserChannel":
        # positional, in field order: a keyword call costs a quarter more,
        # once per user of every drawn scenario
        return cls(h, g, Q, g / (params.Gamma * params.sigma2))


def _harvest_sum(params: SystemParams, h: Iterable[float]) -> float:
    """sum_k eta * h_k, the harvested fraction of radiated power: eta
    times the fsum of the downlink gains h."""
    return params.eta * math.fsum(h)


def _admissible(params: SystemParams, harvest_sum: float) -> bool:
    """Admissibility of downlink gains by their harvest sum
    (`_harvest_sum`): it stays below 1/xi."""
    return harvest_sum < 1.0 / params.xi


@dataclass(frozen=True)
class Scenario:
    """A system parameterization plus K user channels.

    Admissibility requires sum_k eta*h_k < 1/xi: radiating energy must
    cost net power, otherwise the charging slot would be a perpetuum
    mobile and the energy model breaks down.  The harvest sum that test
    takes is kept, with the net drain it leaves, outside equality, hash
    and repr:

    harvest_sum  sum_k eta * h_k, the harvested fraction of radiated power
    wet_deficit  1/xi - harvest_sum, the net power drain per watt of
                 downlink transmit power
    """

    params: SystemParams
    users: tuple[UserChannel, ...]
    harvest_sum: float = field(init=False, repr=False, compare=False)
    wet_deficit: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.users) < 1:
            raise ValueError("scenario needs at least one user")
        p = self.params
        denom = p.Gamma * p.sigma2
        for i, u in enumerate(self.users):
            expect = u.g / denom
            if abs(u.gamma - expect) > 1e-12 * expect:
                raise ValueError(f"user {i}: gamma inconsistent with g and noise parameters")
        harvest_sum = _harvest_sum(p, self.h)
        if not _admissible(p, harvest_sum):
            raise ValueError("sum eta*h must stay below 1/xi")
        object.__setattr__(self, "harvest_sum", harvest_sum)
        object.__setattr__(self, "wet_deficit", 1.0 / p.xi - harvest_sum)

    @property
    def K(self) -> int:
        return len(self.users)

    @property
    def h(self) -> tuple[float, ...]:
        return tuple(u.h for u in self.users)

    @property
    def gamma(self) -> tuple[float, ...]:
        return tuple(u.gamma for u in self.users)

    @property
    def Q(self) -> tuple[float, ...]:
        return tuple(u.Q for u in self.users)


def _is_charge(x) -> bool:
    """A real number, numpy's included; a bool is not 1 J."""
    if isinstance(x, bool):
        return False
    return isinstance(x, (float, int)) or isinstance(x, numbers.Real)


def _require_integer(name: str, v) -> None:
    """Reject anything but an integer, numpy's included; a bool is not 1."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {v!r}")


def _battery_vector(Q: Iterable[float] | float, K: int) -> tuple[float, ...]:
    """One initial charge per user from a real scalar shared by every
    user or a sequence of K of them."""
    if _is_charge(Q):
        return (float(Q),) * K
    try:
        qs = tuple(Q)
    except TypeError:
        raise ValueError(f"Q must be a number of joules or one per user, got {Q!r}") from None
    if not all(map(_is_charge, qs)):
        raise ValueError(f"Q must hold numbers of joules, got {qs!r}")
    if len(qs) != K:
        raise ValueError("Q must be scalar or match the user count")
    return tuple(map(float, qs))


def scenario_from_values(
    params: SystemParams,
    h: Iterable[float],
    gamma: Iterable[float],
    Q: Iterable[float] | float = 0.0,
) -> Scenario:
    """Build a scenario directly from gains and target SNR coefficients.

    The uplink gain is back-computed as gamma * Gamma * sigma2 so the
    stored channel stays self-consistent.  Handy for tests that pin
    gamma rather than a geometry.
    """
    hs = tuple(float(x) for x in h)
    gs = tuple(float(x) for x in gamma)
    if len(hs) != len(gs):
        raise ValueError("h and gamma must have equal length")
    qs = _battery_vector(Q, len(hs))
    denom = params.Gamma * params.sigma2
    users = tuple(
        UserChannel(h=hi, g=gi * denom, Q=qi, gamma=gi) for hi, gi, qi in zip(hs, gs, qs)
    )
    return Scenario(params=params, users=users)


def with_initial_energy(scen: Scenario, Q: Iterable[float] | float) -> Scenario:
    """Return a copy of the scenario with the battery vector replaced."""
    qs = _battery_vector(Q, scen.K)
    users = tuple(replace(u, Q=q) for u, q in zip(scen.users, qs))
    return Scenario(params=scen.params, users=users)


@dataclass(frozen=True)
class Allocation:
    """A resource allocation: downlink power, charging time, uplink powers and times.

    Fields are raw; feasibility against a scenario is judged by
    check_constraints, not here.  Negative entries are rejected outright
    because no solver legitimately produces them.
    """

    P0: float
    tau0: float
    p: tuple[float, ...]
    tau: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.p) != len(self.tau):
            raise ValueError("p and tau must have equal length")
        if self.P0 < 0.0 or self.tau0 < 0.0:
            raise ValueError("P0 and tau0 must be nonnegative")
        if any(x < 0.0 for x in self.p) or any(x < 0.0 for x in self.tau):
            raise ValueError("powers and times must be nonnegative")

    @property
    def K(self) -> int:
        return len(self.p)


def zero_allocation(K: int) -> Allocation:
    return Allocation(P0=0.0, tau0=0.0, p=(0.0,) * K, tau=(0.0,) * K)


@dataclass(frozen=True)
class SolutionReport:
    """Solver output: the allocation plus headline figures and diagnostics.

    mode is one of PWPCN (harvesting users carry the optimum), IELCN
    (a battery-powered user alone does), QOS (throughput-constrained
    solve), INFEASIBLE.  iterations maps diagnostic names to numbers,
    e.g. outer loop counts, and for solve_qos "stop" to why its loop
    stopped.
    """

    alloc: Allocation
    ee: float
    throughput: float
    energy: float
    scheduled: tuple[int, ...]
    mode: str
    iterations: dict

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def num_scheduled(self) -> int:
        return len(self.scheduled)


def scheduled_set(alloc: Allocation) -> tuple[int, ...]:
    """Indices of users with positive uplink time."""
    return tuple(i for i, t in enumerate(alloc.tau) if t > 0.0)


def _check_dims(alloc: Allocation, scen: Scenario) -> None:
    if alloc.K != scen.K:
        raise ValueError(f"allocation has {alloc.K} users, scenario has {scen.K}")


def throughput(alloc: Allocation, scen: Scenario) -> float:
    """Total uplink throughput in bits over the block.

    B = sum_k tau_k * W * log2(1 + p_k * gamma_k).  A slot with
    tau_k = 0 contributes exactly zero regardless of p_k.
    """
    _check_dims(alloc, scen)
    return _bits(scen, alloc.p, alloc.tau)


def _bits(scen: Scenario, p: Sequence[float], tau: Sequence[float]) -> float:
    """B of uplink powers p and slots tau, one entry per user; the
    callers check the lengths."""
    W = scen.params.W
    total = 0.0
    for u, pk, tk in zip(scen.users, p, tau):
        if tk > 0.0:
            total += tk * W * math.log2(1.0 + pk * u.gamma)
    return total


def energy_total(alloc: Allocation, scen: Scenario) -> float:
    """Total energy drawn from supplies in J.

    Downlink: radiated power costs P0/xi at the amplifier, of which
    sum eta*h*P0 lands back in user batteries and is not double
    counted; plus station circuit power Pc.  Uplink: each active user
    spends (p_k/varsigma + pc) * tau_k.  Initial battery energy Q is
    free and therefore absent.
    """
    _check_dims(alloc, scen)
    return _joules(scen, alloc.P0, alloc.tau0, alloc.p, alloc.tau)


def _joules(
    scen: Scenario, P0: float, tau0: float, p: Sequence[float], tau: Sequence[float]
) -> float:
    """E of a charging slot (P0, tau0) and uplink (p, tau), one entry
    per user; the callers check the lengths."""
    par = scen.params
    e = P0 * tau0 * scen.wet_deficit + par.Pc * tau0
    for pk, tk in zip(p, tau):
        e += (pk / par.varsigma + par.pc) * tk
    return e


def system_ee(alloc: Allocation, scen: Scenario) -> float:
    """System energy efficiency in bits per joule; zero when nothing is sent."""
    return _figures(alloc, scen)[2]


def _figures(alloc: Allocation, scen: Scenario) -> tuple[float, float, float]:
    """The bits, joules and EE a report states for an allocation."""
    bits = throughput(alloc, scen)
    joules = energy_total(alloc, scen)
    return bits, joules, bits / joules if bits != 0.0 else 0.0


def _report(
    alloc: Allocation,
    scen: Scenario,
    mode: str,
    iterations: dict,
    figures: tuple[float, float, float] | None = None,
) -> SolutionReport:
    """The report of an allocation: bits, joules, EE and schedule all come
    from the accounting above, so every solver's figures mean the same.
    A caller that has already taken the allocation's _figures passes
    them in."""
    bits, joules, ee = _figures(alloc, scen) if figures is None else figures
    return SolutionReport(
        alloc=alloc,
        ee=ee,
        throughput=bits,
        energy=joules,
        scheduled=scheduled_set(alloc),
        mode=mode,
        iterations=iterations,
    )


_REL_B = 1e-12  # slack applied to the throughput floor in comparisons


def _reaches_floor(B, rmin: float):
    """Whether throughput B meets the floor rmin, up to the slack _REL_B;
    elementwise for an array of throughputs."""
    return B >= rmin * (1.0 - _REL_B)


@dataclass(frozen=True)
class ConstraintReport:
    """Per-constraint slacks for an allocation, plus a verdict.

    Slack convention: nonnegative means satisfied.  c2 is per user.
    worst is the largest relative violation across all constraints
    (0 when everything holds), feasible is worst <= tol.
    """

    c1_power: float
    c2_energy: tuple[float, ...]
    c3_time: float
    c4c5_nonneg: float
    c6_throughput: float | None
    worst: float
    feasible: bool
    tol: float


def check_constraints(alloc: Allocation, scen: Scenario, tol: float = 1e-9) -> ConstraintReport:
    """Evaluate all constraints with relative tolerances.

    Scales: the power cap against Pmax, energy causality against the
    larger of budget and spend, total time against Tmax, throughput
    against Rmin.  Nonnegativity is structural in Allocation, so its
    slack is the smallest field value (always >= 0 here).
    """
    _check_dims(alloc, scen)
    par = scen.params
    violations = []

    c1 = par.Pmax - alloc.P0
    violations.append(max(0.0, -c1) / par.Pmax)

    c2 = []
    for u, pk, tk in zip(scen.users, alloc.p, alloc.tau):
        budget = par.eta * alloc.P0 * alloc.tau0 * u.h + u.Q
        spend = (pk / par.varsigma + par.pc) * tk
        slack = budget - spend
        c2.append(slack)
        scale = max(budget, spend)
        if scale > 0.0:
            violations.append(max(0.0, -slack) / scale)

    c3 = par.Tmax - alloc.tau0 - math.fsum(alloc.tau)
    violations.append(max(0.0, -c3) / par.Tmax)

    c45 = min(alloc.P0, alloc.tau0, min(alloc.p), min(alloc.tau))

    if par.Rmin is None:
        c6 = None
    else:
        c6 = throughput(alloc, scen) - par.Rmin
        violations.append(max(0.0, -c6) / max(par.Rmin, 1.0))

    worst = max(violations)
    return ConstraintReport(
        c1_power=c1,
        c2_energy=tuple(c2),
        c3_time=c3,
        c4c5_nonneg=c45,
        c6_throughput=c6,
        worst=worst,
        feasible=worst <= tol,
        tol=tol,
    )
