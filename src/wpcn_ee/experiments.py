"""Sweep experiments, baselines, and deterministic CSV emission.

Configuration enters as JSON with dB/dBm fields; conversion to linear
units happens exactly once, at load time.  Sweeps iterate a single axis
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
from typing import Iterable, Sequence

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
    _battery_vector,
    _report,
    check_constraints,
    db_to_linear,
    dbm_to_watts,
    system_ee,
    with_initial_energy,
    zero_allocation,
)
from .oracle import GridSpec
from .qos import _reaches_floor, solve_qos, solve_qos_detailed
from .search import golden_section_max
from .throughput_max import max_throughput

SWEEP_AXES = ("Pmax_dBm", "Rmin", "eta", "alpha", "K")
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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


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
        for s in self.schemes:
            if s not in SCHEME_NAMES:
                raise ValueError(f"unknown scheme {s!r}; pick from {SCHEME_NAMES}")
        for r in self.rho_list:
            if not 0.0 <= r <= 1.0:
                raise ValueError("rho values must lie in [0, 1]")


def _optional_float(v) -> float | None:
    return None if v is None else float(v)


def _integer(key: str, v) -> int:
    """An integer entry: integral numbers such as 5 and 5.0 pass; 2.9,
    inf, true and "5" are errors rather than silently truncated."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ValueError(f"{key!r} must be an integer, got {v!r}")


# JSON key -> (dataclass field, conversion), one table per block.  The
# dB/dBm fields are converted to linear units here and nowhere else.
_SYSTEM_KEYS = {
    "bandwidth_Hz": ("W", float),
    "noise_dBm": ("sigma2", lambda v: dbm_to_watts(float(v))),
    "snr_gap_dB": ("Gamma", lambda v: db_to_linear(float(v))),
    "eta": ("eta", float),
    "xi": ("xi", float),
    "varsigma": ("varsigma", float),
    "Pc_W": ("Pc", float),
    "pc_W": ("pc", float),
    "Pmax_dBm": ("Pmax", lambda v: dbm_to_watts(float(v))),
    "Tmax_s": ("Tmax", float),
    "Rmin_bits": ("Rmin", _optional_float),
}
_GEOMETRY_KEYS = {
    "K": ("K", lambda v: _integer("K", v)),
    "d_min_m": ("d_min_m", float),
    "d_max_m": ("d_max_m", float),
    "d_rx_m": ("d_rx_m", float),
    "alpha": ("alpha", float),
    "rician_K_dB": ("rician_K_dB", float),
    "ref_gain": ("ref_gain", float),
    "seed": ("seed", lambda v: _integer("seed", v)),
}
_GRID_KEYS = {
    "n_tau": ("n_tau", lambda v: _integer("n_tau", v)),
    "n_p": ("n_p", lambda v: _integer("n_p", v)),
    "p_max_search": ("p_max_search", _optional_float),
}


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
    return {table[key][0]: table[key][1](value) for key, value in block.items()}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a JSON experiment configuration.

    Every key is optional and overrides a stock default.  Unknown keys
    are rejected so misspelled fields fail loudly instead of silently
    using defaults, and a value of the wrong JSON type, such as null for
    a number, raises ValueError as a bad value does.
    """
    raw = json.loads(Path(path).read_text())
    try:
        return _parse_config(raw)
    except TypeError as exc:
        raise ValueError(f"wrong JSON type in configuration: {exc}") from exc


def _parse_config(raw) -> ExperimentConfig:
    """Resolve a decoded JSON configuration against the stock defaults."""
    if not isinstance(raw, dict):
        raise ValueError("configuration must be a JSON object")
    _check_keys(
        raw,
        {"system", "geometry", "initial_energy_J", "sweep", "schemes", "rho_list", "grid", "output"},
        "top-level",
    )
    params = dataclasses.replace(default_system_params(), **_overrides(raw, "system", _SYSTEM_KEYS))
    geometry = dataclasses.replace(default_geometry(), **_overrides(raw, "geometry", _GEOMETRY_KEYS))

    energy = raw.get("initial_energy_J", 0.0)
    if isinstance(energy, list):
        energy = tuple(float(x) for x in energy)
    else:
        energy = float(energy)

    sweep = None
    if "sweep" in raw:
        blk = _block(raw, "sweep")
        _check_keys(
            blk,
            {"axis", "values", "start", "stop", "step", "trials", "base_seed"},
            "sweep",
        )
        if "values" in blk:
            values = tuple(float(v) for v in _list(blk, "values", []))
        else:
            start, stop = float(blk["start"]), float(blk["stop"])
            step = float(blk.get("step", 1.0))
            for key, v in (("start", start), ("stop", stop), ("step", step)):
                if not math.isfinite(v):
                    raise ValueError(f"sweep {key!r} must be finite, got {v!r}")
            if step <= 0.0:
                raise ValueError("sweep step must be positive")
            n = int(math.floor((stop - start) / step + 1e-9)) + 1
            values = tuple(start + i * step for i in range(max(n, 1)))
        sweep = SweepSpec(
            axis=str(blk["axis"]),
            values=values,
            trials=_integer("trials", blk.get("trials", 1)),
            base_seed=_integer("base_seed", blk.get("base_seed", 0)),
        )

    return ExperimentConfig(
        params=params,
        geometry=geometry,
        initial_energy=energy,
        sweep=sweep,
        schemes=tuple(_list(raw, "schemes", ["ee_optimal"])),
        rho_list=tuple(float(r) for r in _list(raw, "rho_list", [1.0])),
        grid=GridSpec(**_overrides(raw, "grid", _GRID_KEYS)),
        output=str(raw.get("output", "results.csv")),
    )


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

    def build(tau0: float) -> Allocation:
        residual = par.Tmax - tau0
        if rho == 0.0 or residual <= 0.0 or tau0 <= 0.0:
            return zero_allocation(scen.K)
        tau = [residual * u.h / h_sum for u in scen.users]
        spend = rho * par.eta * par.Pmax * tau0 * h_sum / residual
        p = par.varsigma * (spend - par.pc)
        if p <= 0.0:
            p = 0.0
            budget = [rho * par.eta * par.Pmax * tau0 * u.h for u in scen.users]
            tau = [min(t, b / par.pc) for t, b in zip(tau, budget)]
        return Allocation(
            P0=par.Pmax, tau0=tau0, p=(p,) * scen.K, tau=tuple(tau)
        )

    def ee_of(tau0: float) -> float:
        return system_ee(build(tau0), scen)

    tau0, _, n_evals = golden_section_max(ee_of, 0.0, par.Tmax, tol=1e-9 * par.Tmax)
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


def expand_schemes(schemes: Sequence[str], rho_list: Sequence[float]) -> tuple[str, ...]:
    """Replace the fixed_proportion selector by one entry per rho."""
    out: list[str] = []
    for s in schemes:
        if s == "fixed_proportion":
            out.extend(f"fixed_proportion_rho{format(r, 'g')}" for r in rho_list)
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


def _apply_axis(cfg: ExperimentConfig, value: float, seed: int) -> Scenario:
    params = cfg.params
    geometry = cfg.geometry
    axis = cfg.sweep.axis if cfg.sweep else None
    if axis == "Pmax_dBm":
        params = dataclasses.replace(params, Pmax=dbm_to_watts(value))
    elif axis == "Rmin":
        params = dataclasses.replace(params, Rmin=value)
    elif axis == "eta":
        params = dataclasses.replace(params, eta=value)
    elif axis == "alpha":
        geometry = dataclasses.replace(geometry, alpha=value)
    elif axis == "K":
        geometry = dataclasses.replace(geometry, K=_integer("K", value))
    geometry = dataclasses.replace(geometry, seed=seed)
    return _draw_scenario(dataclasses.replace(cfg, params=params, geometry=geometry))


def _draw_scenario(cfg: ExperimentConfig) -> Scenario:
    """Draw the configured channels and charge the configured batteries."""
    scen = generate_scenario(cfg.geometry, cfg.params)
    energy = _battery_vector(cfg.initial_energy, scen.K)
    if any(e != 0.0 for e in energy):
        scen = with_initial_energy(scen, energy)
    return scen


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

    Rows come out in (sweep value, trial, scheme) order.  Infeasible
    trials keep their raw rows but are excluded from the means and
    counted in n_infeasible.  Every feasible report is re-checked
    against the constraint set before it is written.
    """
    if cfg.sweep is None:
        raise ValueError("configuration has no sweep block")
    schemes = expand_schemes(cfg.schemes, cfg.rho_list)
    axis = cfg.sweep.axis
    rows: list[tuple] = []
    for value in cfg.sweep.values:
        for trial in range(cfg.sweep.trials):
            scen = _apply_axis(cfg, value, cfg.sweep.base_seed + trial)
            for scheme in schemes:
                rep = run_scheme(scheme, scen)
                if rep.mode != MODE_INFEASIBLE:
                    cr = check_constraints(rep.alloc, scen, tol=1e-7)
                    if not cr.feasible:
                        raise RuntimeError(
                            f"scheme {scheme} emitted an infeasible allocation "
                            f"(worst violation {cr.worst:.3e}) at {axis}={value}, trial {trial}"
                        )
                rows.append(report_to_row(rep, axis, value, trial, scheme))

    raw_path = write_rows(Path(cfg.output), RAW_COLUMNS, rows)

    mean_rows: list[tuple] = []
    for value in cfg.sweep.values:
        for scheme in schemes:
            group = [r for r in rows if r[1] == value and r[3] == scheme]
            good = [r for r in group if r[11] == 1]
            n_bad = len(group) - len(good)
            if good:
                m_ee = math.fsum(r[5] for r in good) / len(good)
                m_b = math.fsum(r[6] for r in good) / len(good)
                m_e = math.fsum(r[7] for r in good) / len(good)
            else:
                m_ee = m_b = m_e = math.nan
            mean_rows.append((axis, value, scheme, len(group), n_bad, m_ee, m_b, m_e))

    mean_path = write_rows(mean_path_for(cfg.output), MEAN_COLUMNS, mean_rows)
    return raw_path, mean_path


def report_convergence(scen: Scenario) -> list[tuple[int, float, float]]:
    """Per-iteration (iteration, q, T) rows of the rate-floor solve."""
    rep, _, trace = solve_qos_detailed(scen)
    if rep.mode == MODE_INFEASIBLE:
        raise ValueError("scenario cannot meet the throughput floor")
    return trace
