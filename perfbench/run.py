"""Sweep benchmark for wpcn_ee: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload pmax_sweep --seed 8700 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's sweep configuration
(perfbench/workloads/<name>.json) is written once per block of trials,
block b with ``base_seed`` = seed + b * trials; the package is imported
from ``src/`` of the same checkout.  Set-up is timed SETUP_RUNS times
in fresh interpreters, then one more interpreter runs the workload
(workload.py).  BENCHMARK.json at the checkout root names the metrics
each mode reports and their units.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 when a result was printed, 1 otherwise; a failed
output check still prints a result, with ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
DEADLINE_S = 170.0
# A run sweeps BLOCKS consecutive blocks of a workload's trials, one CLI
# sweep per block, with base_seed advancing by the block's trial count.
# run_sweep aborts a whole sweep on one infeasible allocation, and some
# K=10 floor solves emit one, so rmin_sweep sweeps trial by trial: a
# failure then costs six points, not the run.
BLOCKS = {"pmax_sweep": 2, "rmin_sweep": 54, "battery_sweep": 1}
# A traced run sweeps three times (untraced, then traced twice) and then
# probes, so it sweeps the first third of the blocks to end in time.
TRACE_BLOCK_DIVISOR = 3
# One caller, one process, one thread: BLAS pools would only add noise.
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(BLOCKS))
    ap.add_argument("--seed", type=int, default=8700)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def metric_units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def write_configs(workload: str, seed: int, trace: int, run_dir: Path) -> list[Path]:
    """One sweep config per block; block b starts at trial seed
    seed + b * trials."""
    cfg = json.loads((HERE / "workloads" / f"{workload}.json").read_text())
    blocks = BLOCKS[workload]
    if trace:
        blocks = -(-blocks // TRACE_BLOCK_DIVISOR)
    paths = []
    for b in range(blocks):
        cfg["sweep"]["base_seed"] = seed + b * cfg["sweep"]["trials"]
        paths.append(run_dir / f"config{b}.json")
        paths[-1].write_text(json.dumps(cfg, indent=1))
    return paths


def child(args: list[str], deadline: float, env: dict) -> str:
    """Run workload.py to completion; its stdout, or BenchError."""
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process timed out: {' '.join(cmd)}") from exc
    if done.returncode != 0:
        raise BenchError(f"workload process failed ({done.returncode}):\n{done.stderr}")
    sys.stderr.write(done.stderr)
    return done.stdout


def setup_seconds(common: list[str], deadline: float, env: dict) -> float:
    """Median time from spawning an interpreter to package imported and
    configuration parsed."""
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = time.monotonic()
        out = child([*common, "--setup-only"], deadline, env)
        samples.append(json.loads(out.strip().splitlines()[-1])["ready"] - t0)
    return statistics.median(samples)


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "wpcn_ee" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'wpcn_ee'}")
    units = metric_units(args.trace)
    env = {**os.environ, **SINGLE_THREAD_ENV}

    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        configs = write_configs(args.workload, args.seed, args.trace, run_dir)
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--config", *map(str, configs)]
        if not args.trace:
            setup_s = setup_seconds(common, deadline, env)
        result_path = run_dir / "result.json"
        child(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", str(run_dir), "--result", str(result_path)],
            deadline,
            env,
        )
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = setup_s
    if set(values) != set(units):
        raise BenchError(
            f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json"
        )
    result["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
