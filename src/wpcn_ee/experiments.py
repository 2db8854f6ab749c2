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
    check_constraints,
    db_to_linear,
    dbm_to_watts,
    scheduled_set,
    system_ee,
    throughput,
    energy_total,
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
    return GeometryConfig(
        K=K,
        d_min_m=2.0,
        d_max_m=15.0,
        d_rx_m=300.0,
        alpha=2.8,
        rician_K_dB=7.0,
        ref_gain=1.0,
        seed=seed,
    )


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


def _take(block: dict, key: str, default):
    return block[key] if key in block else default


def _check_keys(block: dict, allowed: set[str], where: str) -> None:
    extra = set(block) - allowed
    if extra:
        raise ValueError(f"unknown keys {sorted(extra)} in {where!r} block")


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a JSON experiment configuration.

    dBm/dB fields (noise_dBm, snr_gap_dB, Pmax_dBm) are converted to
    linear units here and nowhere else.  Unknown keys are rejected so
    misspelled fields fail loudly instead of silently using defaults.
    """
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError("configuration must be a JSON object")
    _check_keys(
        raw,
        {"system", "geometry", "initial_energy_J", "sweep", "schemes", "rho_list", "grid", "output"},
        "top-level",
    )

    sys_blk = raw.get("system", {})
    _check_keys(
        sys_blk,
        {
            "bandwidth_Hz",
            "noise_dBm",
            "snr_gap_dB",
            "eta",
            "xi",
            "varsigma",
            "Pc_W",
            "pc_W",
            "Pmax_dBm",
            "Tmax_s",
            "Rmin_bits",
        },
        "system",
    )
    rmin = _take(sys_blk, "Rmin_bits", None)
    params = SystemParams(
        W=float(_take(sys_blk, "bandwidth_Hz", 20e3)),
        sigma2=dbm_to_watts(float(_take(sys_blk, "noise_dBm", -110.0))),
        Gamma=db_to_linear(float(_take(sys_blk, "snr_gap_dB", 0.0))),
        eta=float(_take(sys_blk, "eta", 0.9)),
        xi=float(_take(sys_blk, "xi", 1.0)),
        varsigma=float(_take(sys_blk, "varsigma", 1.0)),
        Pc=float(_take(sys_blk, "Pc_W", 0.5)),
        pc=float(_take(sys_blk, "pc_W", 5e-3)),
        Pmax=dbm_to_watts(float(_take(sys_blk, "Pmax_dBm", 43.0))),
        Tmax=float(_take(sys_blk, "Tmax_s", 1.0)),
        Rmin=None if rmin is None else float(rmin),
    )

    geo_blk = raw.get("geometry", {})
    _check_keys(
        geo_blk,
        {"K", "d_min_m", "d_max_m", "d_rx_m", "alpha", "rician_K_dB", "ref_gain", "seed"},
        "geometry",
    )
    geometry = GeometryConfig(
        K=int(_take(geo_blk, "K", 5)),
        d_min_m=float(_take(geo_blk, "d_min_m", 2.0)),
        d_max_m=float(_take(geo_blk, "d_max_m", 15.0)),
        d_rx_m=float(_take(geo_blk, "d_rx_m", 300.0)),
        alpha=float(_take(geo_blk, "alpha", 2.8)),
        rician_K_dB=float(_take(geo_blk, "rician_K_dB", 7.0)),
        ref_gain=float(_take(geo_blk, "ref_gain", 1.0)),
        seed=int(_take(geo_blk, "seed", 0)),
    )

    energy = raw.get("initial_energy_J", 0.0)
    if isinstance(energy, list):
        energy = tuple(float(x) for x in energy)
    else:
        energy = float(energy)

    sweep = None
    if "sweep" in raw:
        blk = raw["sweep"]
        _check_keys(
            blk,
            {"axis", "values", "start", "stop", "step", "trials", "base_seed"},
            "sweep",
        )
        if "values" in blk:
            values = tuple(float(v) for v in blk["values"])
        else:
            start, stop = float(blk["start"]), float(blk["stop"])
            step = float(_take(blk, "step", 1.0))
            if step <= 0.0:
                raise ValueError("sweep step must be positive")
            n = int(math.floor((stop - start) / step + 1e-9)) + 1
            values = tuple(start + i * step for i in range(max(n, 1)))
        sweep = SweepSpec(
            axis=str(blk["axis"]),
            values=values,
            trials=int(_take(blk, "trials", 1)),
            base_seed=int(_take(blk, "base_seed", 0)),
        )

    grid_blk = raw.get("grid", {})
    _check_keys(grid_blk, {"n_tau", "n_p", "p_max_search"}, "grid")
    grid = GridSpec(
        n_tau=int(_take(grid_blk, "n_tau", 40)),
        n_p=int(_take(grid_blk, "n_p", 25)),
        p_max_search=grid_blk.get("p_max_search"),
    )

    return ExperimentConfig(
        params=params,
        geometry=geometry,
        initial_energy=energy,
        sweep=sweep,
        schemes=tuple(raw.get("schemes", ["ee_optimal"])),
        rho_list=tuple(float(r) for r in raw.get("rho_list", [1.0])),
        grid=grid,
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
    alloc = build(tau0)
    bits = throughput(alloc, scen)
    if par.Rmin is not None and not _reaches_floor(bits, par.Rmin):
        mode = MODE_INFEASIBLE
    else:
        mode = MODE_PWPCN if alloc.tau0 > 0.0 else MODE_IELCN
    return SolutionReport(
        alloc=alloc,
        ee=system_ee(alloc, scen),
        throughput=bits,
        energy=energy_total(alloc, scen),
        scheduled=scheduled_set(alloc),
        mode=mode,
        iterations={"outer": n_evals},
    )


def throughput_report(scen: Scenario) -> SolutionReport:
    """Throughput-maximal allocation wrapped as a solution report.

    When the scenario sets a floor above the ceiling R*, the report
    keeps the allocation and R* but its mode is INFEASIBLE.
    """
    ts = max_throughput(scen)
    alloc = ts.alloc
    rmin = scen.params.Rmin
    if rmin is not None and not _reaches_floor(ts.R_star, rmin):
        mode = MODE_INFEASIBLE
    else:
        mode = MODE_PWPCN if alloc.tau0 > 0.0 else MODE_IELCN
    return SolutionReport(
        alloc=alloc,
        ee=system_ee(alloc, scen),
        throughput=ts.R_star,
        energy=energy_total(alloc, scen),
        scheduled=scheduled_set(alloc),
        mode=mode,
        iterations={"outer": 1},
    )


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
        geometry = dataclasses.replace(geometry, K=int(value))
    geometry = dataclasses.replace(geometry, seed=seed)
    return _draw_scenario(dataclasses.replace(cfg, params=params, geometry=geometry))


def _draw_scenario(cfg: ExperimentConfig) -> Scenario:
    """Draw the configured channels and charge the configured batteries."""
    scen = generate_scenario(cfg.geometry, cfg.params)
    energy = cfg.initial_energy
    nonzero = any(e != 0.0 for e in energy) if isinstance(energy, tuple) else energy != 0.0
    if nonzero:
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
