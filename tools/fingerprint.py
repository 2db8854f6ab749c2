"""Bit-identity fingerprint of the solvers' outputs.

Run from the repository root, with no arguments:

    python3 tools/fingerprint.py

It prints one line per fingerprint, `<sha256>  <what>`:

  * for each workload configuration in perfbench/workloads/ and each
    seed in SEEDS, one CLI sweep over the trials that the benchmark's
    blocks cover at that seed (perfbench/run.py's BLOCKS times the
    configuration's trials per block), hashed over its raw CSV and then
    its mean CSV;
  * the floor corpus: K in {2, 5, 10}, seeds 9000-9011, empty batteries
    or 0.02*(k + 1) J on even-indexed users, and floors of 0.3, 0.8,
    0.95, 0.999, 1.0 and 1.2 times the draw's rate ceiling R*, each
    solved by `solve_qos_detailed` from a cold draw record, hashed over
    the repr of every (report, duals, trace);
  * the same corpus at seeds 9000-9005 and its first four floors, with
    the Dinkelbach iteration cap `qos._MAX_OUTER` set to 1, 2, 3 and 4.

Two checkouts whose lines are equal give the same doubles on all of
these.  Nothing is written outside a temporary directory; perfbench/ is
only read.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from wpcn_ee import (  # noqa: E402
    default_geometry,
    default_system_params,
    generate_scenario,
    max_throughput,
    solve_qos_detailed,
)
from wpcn_ee import cli, qos  # noqa: E402

SEEDS = (8700, 9300)
CORPUS_K = (2, 5, 10)
CORPUS_SEEDS = range(9000, 9012)
CORPUS_FLOORS = (0.3, 0.8, 0.95, 0.999, 1.0, 1.2)
CAPPED_SEEDS = range(9000, 9006)
CAPPED_FLOORS = CORPUS_FLOORS[:4]
CAPS = (1, 2, 3, 4)


def benchmark_blocks() -> dict[str, int]:
    """perfbench/run.py's blocks per workload, read from the script."""
    sys.dont_write_bytecode = True  # leave perfbench/ as it is: no __pycache__
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.BLOCKS


def sweep_digest(workload: Path, trials: int, seed: int, out_dir: Path) -> str:
    """sha256 over the raw and mean CSVs of one CLI sweep."""
    cfg = json.loads(workload.read_text())
    cfg["sweep"]["trials"] = trials
    cfg["sweep"]["base_seed"] = seed
    cfg_path = out_dir / f"{workload.stem}_{seed}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = out_dir / f"{workload.stem}_{seed}.csv"
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        if cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) != 0:
            raise RuntimeError(f"sweep of {workload.name} at seed {seed} failed")
    digest = hashlib.sha256()
    for path in printed.getvalue().split():  # the raw CSV, then the mean CSV
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def corpus(seeds, floors):
    """(K, seed, batteries, floor) scenarios in a fixed order."""
    par = default_system_params()
    for K in CORPUS_K:
        for seed in seeds:
            for Q in ([0.0] * K, [0.02 * (k + 1) if k % 2 == 0 else 0.0 for k in range(K)]):
                scen = generate_scenario(default_geometry(K=K, seed=seed), par, Q=Q)
                r_star = max_throughput(scen).R_star
                for f in floors:
                    yield dataclasses.replace(
                        scen, params=dataclasses.replace(par, Rmin=f * r_star)
                    )


def solve_cold(scen, digest) -> None:
    qos._latest_draw = ((), None)  # a cold draw record, as a fresh process has
    digest.update(repr(solve_qos_detailed(scen)).encode())


def corpus_digest() -> str:
    digest = hashlib.sha256()
    for scen in corpus(CORPUS_SEEDS, CORPUS_FLOORS):
        solve_cold(scen, digest)
    return digest.hexdigest()


def capped_digest() -> str:
    digest = hashlib.sha256()
    cap = qos._MAX_OUTER
    try:
        for scen in corpus(CAPPED_SEEDS, CAPPED_FLOORS):
            for n in CAPS:
                qos._MAX_OUTER = n
                solve_cold(scen, digest)
    finally:
        qos._MAX_OUTER = cap
    return digest.hexdigest()


def main() -> int:
    blocks = benchmark_blocks()
    with tempfile.TemporaryDirectory() as tmp:
        for workload in sorted((ROOT / "perfbench" / "workloads").glob("*.json")):
            per_block = json.loads(workload.read_text())["sweep"]["trials"]
            trials = blocks[workload.stem] * per_block
            for seed in SEEDS:
                digest = sweep_digest(workload, trials, seed, Path(tmp))
                print(f"{digest}  {workload.stem} seed {seed} ({trials} trials)")
    n = len(CORPUS_K) * len(CORPUS_SEEDS) * 2 * len(CORPUS_FLOORS)
    print(f"{corpus_digest()}  corpus ({n} cold floor solves)")
    n = len(CORPUS_K) * len(CAPPED_SEEDS) * 2 * len(CAPPED_FLOORS) * len(CAPS)
    print(f"{capped_digest()}  corpus capped at {CAPS} iterations ({n} cold floor solves)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
