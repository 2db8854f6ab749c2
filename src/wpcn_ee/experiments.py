"""Sweep experiments, baselines, and deterministic CSV emission.

Configuration enters as JSON with dB/dBm fields; conversion to linear
units happens in one place, the key tables, for configured entries and
sweep values alike.  Sweeps iterate a single axis
over Monte Carlo trials with per-trial seeds, so different axis values
see identical channel draws, and every run with the same configuration
produces byte-identical CSV files.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .best_effort import solve_best_effort
from .channels import GeometryConfig, generate_scenario
from .model import (
    MODE_IELCN,
    MODE_INFEASIBLE,
    MODE_PWPCN,
    Allocation,
    Scenario,
    SolutionReport,
    SystemParams,
    _bits,
    _joules,
    _reaches_floor,
    _report,
    _require_integer,
    check_constraints,
    db_to_linear,
    dbm_to_watts,
    zero_allocation,
)
from .oracle import GridSpec
from .qos import max_throughput, solve_qos, solve_qos_detailed

# Unused here: bound only for the layer spans in perfbench/spans.py.
from .model import with_initial_energy  # noqa: F401

# Sweep axis -> (config block, JSON key) of the entry a sweep value overrides
_AXIS_KEYS = {
    "Pmax_dBm": ("system", "Pmax_dBm"),
    "Rmin": ("system", "Rmin_bits"),
    "eta": ("system", "eta"),
    "alpha": ("geometry", "alpha"),
    "K": ("geometry", "K"),
}
SWEEP_AXES = tuple(_AXIS_KEYS)
SCHEME_NAMES = ("ee_optimal", "throughput_optimal", "fixed_proportion")

RAW_COLUMNS = (
    "sweep_name",
    "sweep_value",
    "trial",
    "scheme",
    "mode",
    "ee_bits_per_joule",
    "throughput_bits",
    "energy_joules",
    "tau0_s",
    "num_scheduled",
    "iterations",
    "feasible",
)

MEAN_COLUMNS = (
    "sweep_name",
    "sweep_value",
    "scheme",
    "n_trials",
    "n_infeasible",
    "mean_ee_bits_per_joule",
    "mean_throughput_bits",
    "mean_energy_joules",
)


def default_system_params(Rmin: float | None = None) -> SystemParams:
    """Stock simulation parameters: 20 kHz bandwidth, -110 dBm noise,
    0 dB SNR gap, 43 dBm station power, 0.5 W / 5 mW circuit powers,
    unit amplifier and harvester conversion losses except eta = 0.9."""
    return SystemParams(
        W=20e3,
        sigma2=dbm_to_watts(-110.0),
        Gamma=db_to_linear(0.0),
        eta=0.9,
        xi=1.0,
        varsigma=1.0,
        Pc=0.5,
        pc=5e-3,
        Pmax=dbm_to_watts(43.0),
        Tmax=1.0,
        Rmin=Rmin,
    )


def default_geometry(K: int = 5, seed: int = 0) -> GeometryConfig:
    """Stock deployment: users on 2-15 m from the station, receiver at
    300 m, pathloss exponent 2.8, 7 dB Rician downlink."""
    return GeometryConfig(K=K, seed=seed)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep axis with its values, trial count, and base seed."""

    axis: str
    values: tuple[float, ...]
    trials: int
    base_seed: int

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r}; pick one of {SWEEP_AXES}")
        if not self.values:
            raise ValueError("sweep needs at least one value")
        if not all(map(math.isfinite, self.values)):
            raise ValueError(f"sweep values must be finite, got {self.values!r}")
        if len(set(self.values)) != len(self.values):
            raise ValueError("sweep values must be distinct")
        _require_integer("trials", self.trials)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        _require_integer("base_seed", self.base_seed)
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be non-negative, got {self.base_seed!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description in linear units."""

    params: SystemParams
    geometry: GeometryConfig
    initial_energy: float | tuple[float, ...]
    sweep: SweepSpec | None
    schemes: tuple[str, ...]
    rho_list: tuple[float, ...]
    grid: GridSpec
    output: str

    def __post_init__(self):
        if not self.schemes:
            raise ValueError("schemes needs at least one scheme")
        for s in self.schemes:
            if s not in SCHEME_NAMES:
                raise ValueError(f"unknown scheme {s!r}; pick from {SCHEME_NAMES}")
        if len(set(self.schemes)) != len(self.schemes):
            raise ValueError("scheme names must be distinct")
        if "fixed_proportion" in self.schemes and not self.rho_list:
            raise ValueError("fixed_proportion needs at least one rho value")
        for r in self.rho_list:
            if not 0.0 <= r <= 1.0:
                raise ValueError("rho values must lie in [0, 1]")
        if len(set(self.rho_list)) != len(self.rho_list):
            raise ValueError("rho values must be distinct")
        if self.sweep is not None:
            # each sweep value is checked as the entry it overrides would
            # be, before any point is solved
            for value in self.sweep.values:
                block, name, v = _axis_entry(self.sweep.axis, value)
                dataclasses.replace(self.params if block == "system" else self.geometry, **{name: v})
            # and so is the seed of the last trial
            dataclasses.replace(self.geometry, seed=self.sweep.base_seed + self.sweep.trials - 1)
        if isinstance(self.initial_energy, tuple):
            # every user count the config is solved at: the geometry's
            # (the single-solve commands) and each K a sweep visits
            n = len(self.initial_energy)
            counts = [self.geometry.K]
            if self.sweep is not None and self.sweep.axis == "K":
                counts += self.sweep.values
            for K in counts:
                if K != n:
                    raise ValueError(
                        "Q must be scalar or match the user count: initial_energy_J "
                        f"has {n} entries, but K = {K:g}"
                    )


def _integer(key: str, v) -> int:
    """An integer entry: integral numbers such as 5 and 5.0 pass; 2.9,
    inf, true and "5" are errors rather than silently truncated."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ValueError(f"{key!r} must be an integer, got {v!r}")


def _number(key: str, v) -> float:
    """A real entry: JSON numbers pass as floats; true, "30" and null are
    wrong JSON types rather than silently converted."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    raise TypeError(f"{key!r} must be a number, got {v!r}")


def _optional_number(key: str, v) -> float | None:
    return None if v is None else _number(key, v)


# JSON key -> (dataclass field, conversion), one table per block.  The
# dB/dBm fields are converted to linear units here and nowhere else.
_SYSTEM_KEYS = {
    "bandwidth_Hz": ("W", _number),
    "noise_dBm": ("sigma2", lambda k, v: dbm_to_watts(_number(k, v))),
    "snr_gap_dB": ("Gamma", lambda k, v: db_to_linear(_number(k, v))),
    "eta": ("eta", _number),
    "xi": ("xi", _number),
    "varsigma": ("varsigma", _number),
    "Pc_W": ("Pc", _number),
    "pc_W": ("pc", _number),
    "Pmax_dBm": ("Pmax", lambda k, v: dbm_to_watts(_number(k, v))),
    "Tmax_s": ("Tmax", _number),
    "Rmin_bits": ("Rmin", _optional_number),
}
_GEOMETRY_KEYS = {
    "K": ("K", _integer),
    "d_min_m": ("d_min_m", _number),
    "d_max_m": ("d_max_m", _number),
    "d_rx_m": ("d_rx_m", _number),
    "alpha": ("alpha", _number),
    "rician_K_dB": ("rician_K_dB", _number),
    "ref_gain": ("ref_gain", _number),
    "seed": ("seed", _integer),
}
_GRID_KEYS = {
    "n_tau": ("n_tau", _integer),
    "n_p": ("n_p", _integer),
}
_KEY_TABLES = {"system": _SYSTEM_KEYS, "geometry": _GEOMETRY_KEYS}
_SWEEP_KEYS = ("axis", "values", "trials", "base_seed")
_TOP_KEYS = (
    "system", "geometry", "initial_energy_J", "sweep", "schemes", "rho_list", "grid", "output"
)


def _check_keys(block: dict, allowed: Iterable[str], where: str) -> None:
    extra = set(block).difference(allowed)
    if extra:
        raise ValueError(f"unknown keys {sorted(extra)} in {where!r} block")


def _block(raw: dict, where: str) -> dict:
    """One nested JSON block; a block of another JSON type is an error."""
    block = raw.get(where, {})
    if not isinstance(block, dict):
        raise ValueError(f"{where!r} block must be a JSON object")
    return block


def _list(block: dict, key: str, default: list) -> list:
    """One JSON list entry; a scalar or an object in its place is an error."""
    value = block.get(key, default)
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a JSON list")
    return value


def _overrides(raw: dict, where: str, table: dict) -> dict:
    """Dataclass field overrides from one JSON block, through its key table."""
    block = _block(raw, where)
    _check_keys(block, table, where)
    return {table[key][0]: table[key][1](key, value) for key, value in block.items()}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a JSON experiment configuration.

    Every key is optional and overrides a stock default.  Unknown keys
    are rejected so misspelled fields fail loudly instead of silently
    using defaults, and a value of the wrong JSON type, such as null for
    a number, raises ValueError as a bad value does; so does an integer
    too large for a float.
    """
    raw = json.loads(Path(path).read_text())
    try:
        return _parse_config(raw)
    except TypeError as exc:
        raise ValueError(f"wrong JSON type in configuration: {exc}") from exc
    except OverflowError as exc:
        raise ValueError(f"number out of range in configuration: {exc}") from exc


def _parse_config(raw) -> ExperimentConfig:
    """Resolve a decoded JSON configuration against the stock defaults."""
    if not isinstance(raw, dict):
        raise ValueError("configuration must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "top-level")
    params = dataclasses.replace(default_system_params(), **_overrides(raw, "system", _SYSTEM_KEYS))
    geometry = dataclasses.replace(default_geometry(), **_overrides(raw, "geometry", _GEOMETRY_KEYS))

    energy = raw.get("initial_energy_J", 0.0)
    if isinstance(energy, list):
        energy = tuple(_number("initial_energy_J", x) for x in energy)
    else:
        energy = _number("initial_energy_J", energy)

    sweep = None
    if "sweep" in raw:
        blk = _block(raw, "sweep")
        _check_keys(blk, _SWEEP_KEYS, "sweep")
        if "axis" not in blk:
            raise ValueError("sweep needs an 'axis'")
        sweep = SweepSpec(
            axis=str(blk["axis"]),
            values=tuple(_number("values", v) for v in _list(blk, "values", [])),
            trials=_integer("trials", blk.get("trials", 1)),
            base_seed=_integer("base_seed", blk.get("base_seed", 0)),
        )

    output = raw.get("output", "results.csv")
    if not isinstance(output, str):
        raise ValueError(f"'output' must be a string, got {output!r}")

    return ExperimentConfig(
        params=params,
        geometry=geometry,
        initial_energy=energy,
        sweep=sweep,
        schemes=tuple(_list(raw, "schemes", ["ee_optimal"])),
        rho_list=tuple(_number("rho_list", r) for r in _list(raw, "rho_list", [1.0])),
        grid=GridSpec(**_overrides(raw, "grid", _GRID_KEYS)),
        output=output,
    )


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def golden_section_max(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float, int]:
    """Maximize a unimodal f on [lo, hi] by golden-section search.

    Returns (x_best, f(x_best), evaluations).  The bracket shrinks to
    1e-9 of its starting width.  The endpoints are always among the
    candidates, so a maximum at the boundary is found exactly.
    """
    a, b = lo, hi
    h = b - a
    tol = 1e-9 * h
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc = f(c)
    fd = f(d)
    n = 2
    while h > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
        n += 1
    # Compare interior best with the original endpoints: boundary optima
    # (e.g. tau0 = 0) must not be lost to the shrinking bracket.
    cands = [(c, fc), (d, fd), (lo, f(lo)), (hi, f(hi))]
    n += 2
    x, fx = max(cands, key=lambda t: t[1])
    return x, fx, n


def baseline_fixed_proportion(scen: Scenario, rho: float) -> SolutionReport:
    """Naive policy: every user spends the fraction rho of its harvest.

    Transmission time after charging is split proportionally to the
    downlink gains, each user's power then exhausts exactly rho of its
    harvested energy, and the charging time itself is tuned by a scalar
    golden-section search on the resulting EE.  If the common power
    falls to zero the slots shrink so circuit energy stays within
    budget.  Defined for fully wireless-powered users only.  The policy
    ignores a throughput floor; when its allocation falls short of one,
    the report's mode is INFEASIBLE.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    if any(u.Q != 0.0 for u in scen.users):
        raise ValueError("fixed-proportion baseline assumes zero initial energy")

    par = scen.params
    h_sum = math.fsum(scen.h)

    def uplink(tau0: float) -> tuple[tuple[float, ...], list[float]] | None:
        """The uplink (p, tau) at charging time tau0, or None where the
        policy sends nothing."""
        residual = par.Tmax - tau0
        if rho == 0.0 or residual <= 0.0 or tau0 <= 0.0:
            return None
        tau = [residual * u.h / h_sum for u in scen.users]
        spend = rho * par.eta * par.Pmax * tau0 * h_sum / residual
        p = par.varsigma * (spend - par.pc)
        if p <= 0.0:
            p = 0.0
            budget = [rho * par.eta * par.Pmax * tau0 * u.h for u in scen.users]
            tau = [min(t, b / par.pc) for t, b in zip(tau, budget)]
        return (p,) * scen.K, tau

    def build(tau0: float) -> Allocation:
        up = uplink(tau0)
        if up is None:
            return zero_allocation(scen.K)
        return Allocation(P0=par.Pmax, tau0=tau0, p=up[0], tau=tuple(up[1]))

    def ee_of(tau0: float) -> float:
        # system_ee(build(tau0), scen) from the bookkeeping cores, without
        # building and validating an allocation per probe
        up = uplink(tau0)
        if up is None:
            return 0.0
        bits = _bits(scen, *up)
        return bits / _joules(scen, par.Pmax, tau0, *up) if bits != 0.0 else 0.0

    tau0, _, n_evals = golden_section_max(ee_of, 0.0, par.Tmax)
    return _floor_blind_report(build(tau0), scen, {"outer": n_evals})


def throughput_report(scen: Scenario) -> SolutionReport:
    """Throughput-maximal allocation wrapped as a solution report.

    When the scenario sets a floor above the ceiling R*, the report
    keeps the allocation and R* but its mode is INFEASIBLE.
    """
    return _floor_blind_report(max_throughput(scen).alloc, scen, {"outer": 1})


def _floor_blind_report(alloc: Allocation, scen: Scenario, iterations: dict) -> SolutionReport:
    """Report an allocation chosen without regard to the floor: PWPCN or
    IELCN by its charging slot, INFEASIBLE when it misses the floor."""
    rep = _report(alloc, scen, MODE_PWPCN if alloc.tau0 > 0.0 else MODE_IELCN, iterations)
    rmin = scen.params.Rmin
    if rmin is not None and not _reaches_floor(rep.throughput, rmin):
        return dataclasses.replace(rep, mode=MODE_INFEASIBLE)
    return rep


def _rho_label(rho: float) -> str:
    """The %g form of rho when it reads back as rho, else its repr, so
    run_scheme always runs the configured value."""
    short = format(rho, "g")
    return short if float(short) == rho else repr(rho)


def expand_schemes(schemes: Sequence[str], rho_list: Sequence[float]) -> tuple[str, ...]:
    """Replace the fixed_proportion selector by one entry per rho."""
    out: list[str] = []
    for s in schemes:
        if s == "fixed_proportion":
            out.extend(f"fixed_proportion_rho{_rho_label(r)}" for r in rho_list)
        else:
            out.append(s)
    return tuple(out)


def run_scheme(scheme: str, scen: Scenario) -> SolutionReport:
    """Dispatch one scheme name against a scenario."""
    if scheme == "ee_optimal":
        if scen.params.Rmin is not None:
            return solve_qos(scen)
        return solve_best_effort(scen)
    if scheme == "throughput_optimal":
        return throughput_report(scen)
    if scheme.startswith("fixed_proportion_rho"):
        rho = float(scheme[len("fixed_proportion_rho"):])
        return baseline_fixed_proportion(scen, rho)
    raise ValueError(f"unknown scheme {scheme!r}")


def _axis_entry(axis: str, value: float) -> tuple[str, str, object]:
    """(config block, dataclass field, converted value) of one sweep value,
    through the key table of the entry it overrides."""
    block, key = _AXIS_KEYS[axis]
    name, convert = _KEY_TABLES[block][key]
    return block, name, convert(key, value)


def _apply_axis(cfg: ExperimentConfig, value: float | None = None, seed: int | None = None) -> Scenario:
    """The configured scenario, with the sweep axis at value (`_axis_entry`)
    and the geometry seed at seed, if given."""
    params, geometry = cfg.params, {} if seed is None else {"seed": seed}
    if value is not None:
        block, name, v = _axis_entry(cfg.sweep.axis, value)
        if block == "system":
            params = dataclasses.replace(params, **{name: v})
        else:
            geometry[name] = v
    return generate_scenario(dataclasses.replace(cfg.geometry, **geometry), params, Q=cfg.initial_energy)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_rows(
    path: str | Path | None, columns: Sequence[str], rows: Iterable[Sequence]
) -> Path | None:
    """Write one CSV with formatted floats; returns the path.

    A path of None writes to standard output instead.
    """
    if path is not None:
        path = Path(path)
    with contextlib.nullcontext(sys.stdout) if path is None else path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
    return path


def report_to_row(
    rep: SolutionReport, sweep_name: str, sweep_value: float, trial: int, scheme: str
) -> tuple:
    return (
        sweep_name,
        sweep_value,
        trial,
        scheme,
        rep.mode,
        rep.ee,
        rep.throughput,
        rep.energy,
        rep.alloc.tau0,
        rep.num_scheduled,
        rep.iterations.get("outer", 0),
        0 if rep.mode == MODE_INFEASIBLE else 1,
    )


def mean_path_for(raw_path: str | Path) -> Path:
    raw_path = Path(raw_path)
    return raw_path.with_name(raw_path.stem + "_mean" + raw_path.suffix)


def run_sweep(cfg: ExperimentConfig) -> tuple[Path, Path]:
    """Execute the configured sweep and write the raw and mean CSVs.

    Points are solved trial by trial: every sweep value and scheme of
    one trial before the next trial, so every value reuses the trial's
    channel variates, and the floors of an Rmin sweep, which share one
    channel draw, reuse its KKT levels back to back.
    Rows still come out in (sweep value, trial, scheme) order.
    Infeasible trials keep their raw rows but are excluded from the
    means and counted in n_infeasible.  Every feasible report is
    re-checked against the constraint set as it is solved, so the first
    failing point in trial order aborts the sweep.
    """
    if cfg.sweep is None:
        raise ValueError("configuration has no sweep block")
    schemes = expand_schemes(cfg.schemes, cfg.rho_list)
    axis = cfg.sweep.axis
    values = cfg.sweep.values
    # solved[i][trial] holds the scheme reports at values[i]
    solved: list[list[list[SolutionReport]]] = [[] for _ in values]
    for trial in range(cfg.sweep.trials):
        for value, per_trial in zip(values, solved):
            scen = _apply_axis(cfg, value, cfg.sweep.base_seed + trial)
            reps = []
            for scheme in schemes:
                rep = run_scheme(scheme, scen)
                if rep.mode != MODE_INFEASIBLE:
                    cr = check_constraints(rep.alloc, scen, tol=1e-7)
                    if not cr.feasible:
                        raise RuntimeError(
                            f"scheme {scheme} emitted an infeasible allocation "
                            f"(worst violation {cr.worst:.3e}) at {axis}={value}, trial {trial}"
                        )
                reps.append(rep)
            per_trial.append(reps)

    rows = [
        report_to_row(rep, axis, value, trial, scheme)
        for value, per_trial in zip(values, solved)
        for trial, reps in enumerate(per_trial)
        for scheme, rep in zip(schemes, reps)
    ]
    raw_path = write_rows(Path(cfg.output), RAW_COLUMNS, rows)

    mean_rows: list[tuple] = []
    for value, per_trial in zip(values, solved):
        for i, scheme in enumerate(schemes):
            group = [reps[i] for reps in per_trial]
            good = [r for r in group if r.mode != MODE_INFEASIBLE]
            if good:
                m_ee = math.fsum(r.ee for r in good) / len(good)
                m_b = math.fsum(r.throughput for r in good) / len(good)
                m_e = math.fsum(r.energy for r in good) / len(good)
            else:
                m_ee = m_b = m_e = math.nan
            mean_rows.append((axis, value, scheme, len(group), len(group) - len(good), m_ee, m_b, m_e))

    mean_path = write_rows(mean_path_for(cfg.output), MEAN_COLUMNS, mean_rows)
    return raw_path, mean_path


def report_convergence(scen: Scenario) -> list[tuple[int, float, float]]:
    """Per-iteration (iteration, q, T) rows of the rate-floor solve."""
    rep, _, trace = solve_qos_detailed(scen)
    if rep.mode == MODE_INFEASIBLE:
        raise ValueError("scenario cannot meet the throughput floor")
    return trace
