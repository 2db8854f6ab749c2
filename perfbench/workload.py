"""One run of one workload, in a fresh single-threaded interpreter.

Started by run.py, never imported.  It drives the package through its
CLI in-process, ``cli.main(["sweep", "--config", ..., "--out", ...])``,
so every sweep pays for argument parsing, ``load_config``, ``run_sweep``
and the CSV writer, as a user of the command line does.

A round sweeps every ``--config`` given, one CLI sweep per block of
trials.  Untraced, rounds repeat while another one fits in
``--seconds`` (always at least one), and the median round rate is
reported.  Traced, two more rounds follow with every layer binding
wrapped (spans.py); their CSVs must be byte-identical to the untraced
ones and their counts equal.  The K-scaling probe (probes.py) ends a
traced run.  The result goes to ``--result`` as JSON.

With ``--setup-only`` it stops once the package is imported and the
configuration parsed, and prints the monotonic clock at that moment so
run.py can time the set-up from the outside.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibration
import checks
import probes
import spans

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE = Path(__file__).resolve().parent / "reference"
TRACED_REPS = 2
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
DEFAULT_SEED = 8700

# Per-layer metrics read from the traced spans: layer -> fields.
LAYER_FIELDS = {
    "throughput_max.max_throughput": ("calls", "self_s"),
    "throughput_max.newton_bisect": ("calls", "self_s"),
    "search.golden_section_max": ("calls", "evals", "self_s"),
    "qos.solve_qos": ("calls", "self_s", "ms_p50", "ms_tail", "tail_pct", "samples"),
    "qos.newton_bisect": ("calls", "self_s"),
    "qos.brentq": ("calls", "self_s"),
    "user_ee.max_user_ee": ("calls", "self_s"),
    "best_effort.solve_best_effort": ("calls", "self_s"),
    "channels.generate_scenario": ("calls", "self_s"),
    "model.with_initial_energy": ("calls", "self_s"),
    "model.check_constraints": ("calls", "self_s"),
    "experiments.run_sweep": ("self_s",),
    "experiments.run_scheme": ("calls", "ms_p50", "ms_tail", "tail_pct", "samples"),
    "experiments.write_rows": ("self_s", "bytes"),
    "experiments.load_config": ("s",),
    "experiments.baseline_fixed_proportion": ("calls", "self_s"),
    "cli.main": ("self_s",),
}

# The layers each workload is built to isolate, for the share metrics.
BEST_EFFORT_STACK = (
    "best_effort.solve_best_effort",
    "channels.generate_scenario",
    "model.with_initial_energy",
    "model.check_constraints",
)


def load_package():
    """Import wpcn_ee from the checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import wpcn_ee

    if Path(wpcn_ee.__file__).resolve().parent != SRC / "wpcn_ee":
        raise RuntimeError(f"wpcn_ee imported from {wpcn_ee.__file__}, not from {SRC}")
    names = {mod for mod, _, _ in spans.BINDINGS}
    return wpcn_ee, {m: importlib.import_module(f"wpcn_ee.{m}") for m in names}


def run_sweep_once(main, config: Path, out: Path) -> tuple[float, tuple[bytes, bytes] | None]:
    """One CLI sweep: (seconds, (raw CSV, mean CSV)), or None if it failed.

    A failure is an exception, which includes run_sweep's own
    check_constraints abort, or a non-zero exit code.
    """
    argv = ["sweep", "--config", str(config), "--out", str(out)]
    printed = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(printed):
            rc = main(argv)
    except Exception:  # a solver error fails this block, not the benchmark
        traceback.print_exc()
        rc = None
    dt = time.perf_counter() - t0
    if rc != 0:
        print(f"sweep of {config.name} failed, exit code {rc}", file=sys.stderr)
        return dt, None
    mean = out.with_name(out.stem + "_mean" + out.suffix)
    return dt, (out.read_bytes(), mean.read_bytes())


def sweep_round(main, configs: list[Path], out_dir: Path, tag: str) -> list:
    """One CLI sweep per block config: [(calibrated seconds, CSVs or None)].

    The calibration loop is timed before the first block and after
    each one; a block's seconds are rescaled by the mean of the loop
    times on either side of it.
    """
    results = []
    cal_before = calibration.loop_seconds()
    for b, c in enumerate(configs):
        dt, csvs = run_sweep_once(main, c, out_dir / f"{tag}{b}.csv")
        cal_after = calibration.loop_seconds()
        scale = calibration.REFERENCE_S / (0.5 * (cal_before + cal_after))
        results.append((dt * scale, csvs))
        cal_before = cal_after
    return results


def round_rate(results, block_points: list[int]) -> tuple[int, float]:
    """(points, calibrated seconds) over the blocks that completed."""
    done = [(n, dt) for (dt, csvs), n in zip(results, block_points) if csvs is not None]
    return sum(n for n, _ in done), sum(dt for _, dt in done)


def round_failures(results, reference, bad, block_points) -> tuple[int, bool]:
    """(failed points, every block's CSVs identical to the reference round).

    A block whose output changed between rounds of the same inputs, or
    that failed, fails all its points; otherwise its points that failed
    an output check.
    """
    failed, identical = 0, True
    for (_, csvs), ref, bad_b, n in zip(results, reference, bad, block_points):
        if csvs != ref:
            identical = False
            failed += n
        else:
            failed += n if csvs is None else len(bad_b)
    return failed, identical


def bad_points(workload: str, results, wp, cfgs, seed: int, trace: int) -> list[set]:
    """Per block, the (value, trial) points that fail an output check.

    The recorded means cover the full untraced run at the default seed,
    so they are checked only there.
    """
    bad = []
    for (_, csvs), cfg in zip(results, cfgs):
        if csvs is None:
            bad.append(set())
            continue
        rows = checks.parse_csv(csvs[0])
        if workload == "pmax_sweep":
            bad.append(checks.check_pmax(rows))
        elif workload == "rmin_sweep":
            bad.append(checks.check_rmin(rows))
        else:
            def scenario_of(value, trial, cfg=cfg):
                geo = dataclasses.replace(
                    cfg.geometry, alpha=value, seed=cfg.sweep.base_seed + trial
                )
                scen = wp.generate_scenario(geo, cfg.params)
                return wp.with_initial_energy(scen, cfg.initial_energy)

            bad.append(checks.check_battery(rows, scenario_of, wp.user_ee_at))
    if seed == DEFAULT_SEED and not trace:
        ref = (REFERENCE / f"{workload}_mean.csv").read_bytes()
        mean_rows = [r for _, csvs in results if csvs for r in checks.parse_csv(csvs[1])]
        values = checks.check_reference_means(mean_rows, checks.parse_csv(ref))
        for b, cfg in enumerate(cfgs):
            bad[b] |= {(v, t) for v in values for t in range(cfg.sweep.trials)}
    return bad


def tail(samples_ns: list[int]) -> tuple[float, float]:
    """(percentile, value in ms): the highest ladder percentile with at
    least TAIL_BEYOND samples beyond it, nearest rank."""
    n = len(samples_ns)
    if n == 0:
        return 0.0, 0.0
    pct = next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= TAIL_BEYOND), 50.0)
    xs = sorted(samples_ns)
    return pct, xs[max(math.ceil(pct / 100.0 * n) - 1, 0)] / 1e6


def layer_metrics(tracers: list, untraced_pps: float, traced: list[tuple[int, float]]) -> dict:
    """Per-layer metrics per round, averaged over the traced rounds."""
    reps = len(tracers)

    def total(name, attr):
        return sum(getattr(t.stat(name), attr) for t in tracers)

    out = {}
    for name, fields in LAYER_FIELDS.items():
        samples = [x for t in tracers for x in t.stat(name).samples_ns]
        pct, ms_tail = tail(samples)
        values = {
            "calls": total(name, "calls") / reps,
            "self_s": total(name, "self_ns") / reps / 1e9,
            "s": total(name, "total_ns") / reps / 1e9,
            "evals": sum(t.stat(name).extra.get("evals", 0) for t in tracers) / reps,
            "bytes": sum(t.stat(name).extra.get("bytes", 0) for t in tracers) / reps,
            "ms_p50": statistics.median(samples) / 1e6 if samples else 0.0,
            "ms_tail": ms_tail,
            "tail_pct": pct,
            "samples": len(samples),
        }
        for f in fields:
            out[f"{name}.{f}"] = values[f]

    qos_calls = total("qos.solve_qos", "calls")
    qos_extra = [t.stat("qos.solve_qos").extra for t in tracers]
    out["qos.inner_points"] = total("qos.inner_points", "calls") / reps
    out["qos.dinkelbach_iters"] = (
        sum(e.get("outer", 0) for e in qos_extra) / qos_calls if qos_calls else 0.0
    )
    out["qos.fill_frac"] = (
        sum(e.get("filled", 0) for e in qos_extra) / qos_calls if qos_calls else 0.0
    )

    def share(parts, whole):
        denom = total(whole, "total_ns")
        return sum(total(p, "total_ns") for p in parts) / denom if denom else 0.0

    out["share.throughput_max_of_run_scheme"] = share(
        ["throughput_max.max_throughput"], "experiments.run_scheme"
    )
    out["share.qos_of_run_scheme"] = share(["qos.solve_qos"], "experiments.run_scheme")
    out["share.best_effort_stack_of_main"] = share(BEST_EFFORT_STACK, spans.CLI_MAIN)
    traced_pps = sum(n for n, _ in traced) / sum(dt for _, dt in traced)
    out["trace.overhead_frac"] = 1.0 - traced_pps / untraced_pps
    return out


def traced_rounds(main, modules, configs, out_dir: Path, reference, bad, block_points):
    """TRACED_REPS rounds with every layer binding wrapped.

    Returns (tracers, [(points, seconds)], failed points, outputs
    identical to the untraced reference).
    """
    tracers, rates, failed, identical = [], [], 0, True
    for i in range(TRACED_REPS):
        tracer = spans.Tracer()
        with spans.installed(tracer, modules):
            results = sweep_round(tracer.wrap(spans.CLI_MAIN, main), configs, out_dir, f"traced{i}_")
        n_failed, same = round_failures(results, reference, bad, block_points)
        if not same:
            print(f"traced round {i} output differs from the untraced one", file=sys.stderr)
        failed += n_failed
        identical = identical and same
        tracers.append(tracer)
        rates.append(round_rate(results, block_points))
    return tracers, rates, failed, identical


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", type=Path, nargs="+", required=True, help="one per block")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", type=Path)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wp, modules = load_package()
    cfgs = [modules["experiments"].load_config(c) for c in args.config]
    if args.setup_only:
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    cli_main = modules["cli"].main
    block_points = [len(c.sweep.values) * c.sweep.trials for c in cfgs]
    attempted = failed = 0
    outputs_ok = True
    reference, bad = None, None
    rates = []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        results = sweep_round(cli_main, args.config, args.out_dir, "untraced")
        round_s = time.perf_counter() - t0
        if reference is None:
            reference = [csvs for _, csvs in results]
            bad = bad_points(args.workload, results, wp, cfgs, args.seed, args.trace)
            for b, points in enumerate(bad):
                for point in sorted(points):
                    print(f"output check failed in block {b} at {point}", file=sys.stderr)
            outputs_ok = not any(bad)
        attempted += sum(block_points)
        n_failed, same = round_failures(results, reference, bad, block_points)
        failed += n_failed
        outputs_ok = outputs_ok and same
        points, seconds = round_rate(results, block_points)
        rates.append(points / seconds if seconds else 0.0)
        if time.perf_counter() + round_s > deadline:  # the next round would not fit
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    points_per_s = statistics.median(rates)

    if args.trace:
        tracers, traced, traced_failed, identical = traced_rounds(
            cli_main, modules, args.config, args.out_dir, reference, bad, block_points
        )
        attempted += TRACED_REPS * sum(block_points)
        failed += traced_failed
        counts = [t.counts() for t in tracers]
        if any(c != counts[0] for c in counts):
            print(f"counts differ between traced rounds: {counts}", file=sys.stderr)
            identical = False
        outputs_ok = outputs_ok and identical
        metrics = layer_metrics(tracers, points_per_s, traced)
        metrics.update(probes.run_probes(wp, args.seed))
    else:
        metrics = {"points_per_ref_s": points_per_s, "peak_rss_mb": peak_rss_mb}

    result = {"correct": outputs_ok, "attempted": attempted, "failed": failed, "metrics": metrics}
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
