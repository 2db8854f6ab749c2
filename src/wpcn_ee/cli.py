"""Command line front end: single solves, sweeps, and oracle checks.

Exit codes: 0 on success, 2 when a single solve is infeasible, 1 on
usage or configuration errors.  All output is CSV with a header row so
repeated runs with the same configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Sequence

from .best_effort import solve_best_effort
from .experiments import (
    RAW_COLUMNS,
    ExperimentConfig,
    _draw_scenario,
    _parse_config,
    load_config,
    report_convergence,
    report_to_row,
    run_sweep,
    throughput_report,
    write_rows,
)
from .model import MODE_INFEASIBLE
from .oracle import grid_search_best_effort, grid_search_qos
from .qos import solve_qos

_USAGE_EXIT = 1
_INFEASIBLE_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1; argparse's default of 2 is reserved for
    # infeasible solves here.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_USAGE_EXIT)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="wpcn-ee",
        description="Energy-efficient resource allocation for wireless powered networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("solve-best-effort", "maximize EE with no throughput floor"),
        ("solve-qos", "maximize EE subject to the throughput floor"),
        ("feasibility", "check whether the floor is attainable"),
        ("oracle-check", "compare a solver against the grid oracle"),
        ("sweep", "run the configured sweep and write CSVs"),
        ("convergence", "emit the Dinkelbach iteration trace"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", type=Path, default=None, help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the geometry seed")
        p.add_argument("--out", type=Path, default=None, help="output CSV path (default stdout)")
        if name == "oracle-check":
            p.add_argument(
                "--tolerance",
                type=float,
                default=0.0,
                help="extra slack for oracle agreement checks",
            )
    return parser


def _config_from(args) -> ExperimentConfig:
    cfg = _parse_config({}) if args.config is None else load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(
            cfg, geometry=dataclasses.replace(cfg.geometry, seed=args.seed)
        )
    return cfg


def _cmd_single(args, use_floor: bool) -> int:
    cfg = _config_from(args)
    scen = _draw_scenario(cfg)
    if use_floor:
        if cfg.params.Rmin is None:
            print("solve-qos needs Rmin_bits in the configuration", file=sys.stderr)
            return _USAGE_EXIT
        rep = solve_qos(scen)
        scheme = "ee_optimal"
    else:
        rep = solve_best_effort(scen)
        scheme = "ee_optimal"
    write_rows(args.out, RAW_COLUMNS, [report_to_row(rep, "single", 0.0, 0, scheme)])
    return _INFEASIBLE_EXIT if rep.mode == MODE_INFEASIBLE else 0


def _cmd_feasibility(args) -> int:
    cfg = _config_from(args)
    if cfg.params.Rmin is None:
        print("feasibility needs Rmin_bits in the configuration", file=sys.stderr)
        return _USAGE_EXIT
    rep = throughput_report(_draw_scenario(cfg))
    ok = rep.mode != MODE_INFEASIBLE
    write_rows(
        args.out,
        ("R_star_bits", "Rmin_bits", "feasible"),
        [(rep.throughput, cfg.params.Rmin, 1 if ok else 0)],
    )
    return 0 if ok else _INFEASIBLE_EXIT


def _cmd_oracle_check(args) -> int:
    cfg = _config_from(args)
    scen = _draw_scenario(cfg)
    if cfg.params.Rmin is None:
        rep = solve_best_effort(scen)
        oracle = grid_search_best_effort(scen, cfg.grid)
        scheme = "solve_best_effort"
    else:
        rep = solve_qos(scen)
        oracle = grid_search_qos(scen, cfg.grid)
        scheme = "solve_qos"
    bound = oracle.iterations.get("resolution_bound_ee", 0.0)
    agrees = 1 if rep.ee >= oracle.ee - bound - args.tolerance else 0
    columns = (
        "scheme",
        "ee",
        "throughput",
        "energy",
        "tau0_s",
        "num_scheduled",
        "resolution_bound",
        "agrees",
    )
    rows = [
        (scheme, rep.ee, rep.throughput, rep.energy, rep.alloc.tau0, rep.num_scheduled, bound, agrees),
        (
            "grid_oracle",
            oracle.ee,
            oracle.throughput,
            oracle.energy,
            oracle.alloc.tau0,
            oracle.num_scheduled,
            bound,
            agrees,
        ),
    ]
    write_rows(args.out, columns, rows)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config_from(args)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output=str(args.out))
    raw_path, mean_path = run_sweep(cfg)
    print(raw_path)
    print(mean_path)
    return 0


def _cmd_convergence(args) -> int:
    cfg = _config_from(args)
    if cfg.params.Rmin is None:
        print("convergence needs Rmin_bits in the configuration", file=sys.stderr)
        return _USAGE_EXIT
    scen = _draw_scenario(cfg)
    try:
        trace = report_convergence(scen)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return _INFEASIBLE_EXIT
    write_rows(args.out, ("iteration", "q_bits_per_joule", "T_bits"), trace)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve-best-effort":
            return _cmd_single(args, use_floor=False)
        if args.command == "solve-qos":
            return _cmd_single(args, use_floor=True)
        if args.command == "feasibility":
            return _cmd_feasibility(args)
        if args.command == "oracle-check":
            return _cmd_oracle_check(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "convergence":
            return _cmd_convergence(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    raise AssertionError("unreachable command dispatch")


if __name__ == "__main__":
    sys.exit(main())
