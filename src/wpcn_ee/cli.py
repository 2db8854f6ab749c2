"""Command line front end: single solves, sweeps, and oracle checks.

Exit codes: 0 on success, 2 when a single solve is infeasible, 1 on
usage or configuration errors.  All output is CSV with a header row so
repeated runs with the same configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from functools import cache, partial
from pathlib import Path
from typing import Sequence

from .best_effort import solve_best_effort
from .experiments import (
    RAW_COLUMNS,
    _apply_axis,
    _parse_config,
    load_config,
    report_to_row,
    run_sweep,
    throughput_report,
    write_rows,
)
from .model import MODE_INFEASIBLE
from .oracle import grid_search_best_effort, grid_search_qos
from .qos import solve_qos, solve_qos_detailed

_USAGE_EXIT = 1
_INFEASIBLE_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1; argparse's default of 2 is reserved for
    # infeasible solves here.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_USAGE_EXIT)


def _cmd_solve(solver, args, cfg) -> int:
    rep = solver(_apply_axis(cfg, seed=args.seed))
    write_rows(args.out, RAW_COLUMNS, [report_to_row(rep, "single", 0.0, 0, "ee_optimal")])
    return _INFEASIBLE_EXIT if rep.mode == MODE_INFEASIBLE else 0


def _cmd_feasibility(args, cfg) -> int:
    rep = throughput_report(_apply_axis(cfg, seed=args.seed))
    ok = rep.mode != MODE_INFEASIBLE
    write_rows(
        args.out,
        ("R_star_bits", "Rmin_bits", "feasible"),
        [(rep.throughput, cfg.params.Rmin, 1 if ok else 0)],
    )
    return 0 if ok else _INFEASIBLE_EXIT


def _cmd_oracle_check(args, cfg) -> int:
    scen = _apply_axis(cfg, seed=args.seed)
    if cfg.params.Rmin is None:
        scheme, solver, search = "solve_best_effort", solve_best_effort, grid_search_best_effort
    else:
        scheme, solver, search = "solve_qos", solve_qos, grid_search_qos
    rep, oracle = solver(scen), search(scen, cfg.grid)
    bound = oracle.iterations.get("resolution_bound_ee", 0.0)
    agrees = 1 if rep.ee >= oracle.ee - bound else 0
    columns = (
        "scheme", "ee", "throughput", "energy",
        "tau0_s", "num_scheduled", "resolution_bound", "agrees",
    )
    rows = [
        (name, r.ee, r.throughput, r.energy, r.alloc.tau0, r.num_scheduled, bound, agrees)
        for name, r in ((scheme, rep), ("grid_oracle", oracle))
    ]
    write_rows(args.out, columns, rows)
    return 0


def _cmd_sweep(args, cfg) -> int:
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output=str(args.out))
    raw_path, mean_path = run_sweep(cfg)
    print(raw_path)
    print(mean_path)
    return 0


def _cmd_convergence(args, cfg) -> int:
    rep, _, trace = solve_qos_detailed(_apply_axis(cfg, seed=args.seed))
    write_rows(args.out, ("iteration", "q_bits_per_joule", "T_bits"), trace)
    return _INFEASIBLE_EXIT if rep.mode == MODE_INFEASIBLE else 0


# command -> (help text, handler(args, cfg), whether it needs Rmin_bits).
# Handlers reach load_config and run_sweep through this module's globals,
# which the benchmark's layer spans replace.
_COMMANDS = {
    "solve-best-effort": (
        "maximize EE with no throughput floor", partial(_cmd_solve, solve_best_effort), False
    ),
    "solve-qos": (
        "maximize EE subject to the throughput floor", partial(_cmd_solve, solve_qos), True
    ),
    "feasibility": ("check whether the floor is attainable", _cmd_feasibility, True),
    "oracle-check": ("compare a solver against the grid oracle", _cmd_oracle_check, False),
    "sweep": ("run the configured sweep and write CSVs", _cmd_sweep, False),
    "convergence": ("emit the Dinkelbach iteration trace", _cmd_convergence, True),
}


@cache
def _build_parser() -> _Parser:
    """The command line parser, built on the first call and then shared:
    parse_args leaves it unchanged."""
    parser = _Parser(
        prog="wpcn-ee",
        description="Energy-efficient resource allocation for wireless powered networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", type=Path, default=None, help="JSON configuration file")
        if name != "sweep":  # a sweep seeds trial t with base_seed + t
            p.add_argument("--seed", type=int, default=None, help="override the geometry seed")
        p.add_argument("--out", type=Path, default=None, help="output CSV path (default stdout)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _, handler, needs_floor = _COMMANDS[args.command]
    try:
        cfg = _parse_config({}) if args.config is None else load_config(args.config)
        if needs_floor and cfg.params.Rmin is None:
            print(f"{args.command} needs Rmin_bits in the configuration", file=sys.stderr)
            return _USAGE_EXIT
        return handler(args, cfg)
    except (ValueError, OSError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
