"""Output checks on a workload's sweep CSVs.

Each check returns the set of failing points, a point being one
(sweep value, trial) pair.  The checks hold for any seed: they compare
schemes and floors against each other, or against a brute-force scan,
never against stored numbers.  The one stored comparison, the mean CSV
at the default seed, is ``check_reference_means``.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict

REL = 1e-9
MEAN_REL = 1e-6
_MEAN_COLUMNS = ("mean_ee_bits_per_joule", "mean_throughput_bits", "mean_energy_joules")

# Points of battery_sweep re-solved by brute force after timing: the
# first trials of every axis value.
BATTERY_SAMPLE_TRIALS = 4
_POWER_GRID_W = [10.0 ** (e / 20.0) for e in range(-160, 81)]  # 1e-8 .. 1e4 W


def parse_csv(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _by_point(rows):
    points = defaultdict(dict)
    for r in rows:
        points[(float(r["sweep_value"]), int(r["trial"]))][r["scheme"]] = r
    return points


def _not_below(a: float, b: float) -> bool:
    """a >= b up to the relative slack REL."""
    return a >= b - REL * abs(b)


def check_pmax(rows) -> set:
    """ee_optimal has the best EE and throughput_optimal the most bits."""
    bad = set()
    for key, schemes in _by_point(rows).items():
        ees = [float(r["ee_bits_per_joule"]) for r in schemes.values()]
        bits = [float(r["throughput_bits"]) for r in schemes.values()]
        ee_opt = float(schemes["ee_optimal"]["ee_bits_per_joule"])
        b_opt = float(schemes["throughput_optimal"]["throughput_bits"])
        if not (_not_below(ee_opt, max(ees)) and _not_below(b_opt, max(bits))):
            bad.add(key)
    return bad


def check_rmin(rows) -> set:
    """Feasible rows meet the floor; per trial, EE and feasibility never
    rise as the floor rises."""
    bad = set()
    by_trial = defaultdict(list)
    for r in rows:
        value, trial = float(r["sweep_value"]), int(r["trial"])
        if r["feasible"] == "1" and not _not_below(float(r["throughput_bits"]), value):
            bad.add((value, trial))
        by_trial[trial].append((value, float(r["ee_bits_per_joule"]), int(r["feasible"])))
    for trial, seq in by_trial.items():
        seq.sort()
        for (_, ee0, f0), (v1, ee1, f1) in zip(seq, seq[1:]):
            if f1 > f0 or not _not_below(ee0, ee1):
                bad.add((v1, trial))
    return bad


def check_battery(rows, scenario_of, user_ee_at) -> set:
    """On a sample of points, the reported EE is at least every battery
    user's own EE anywhere on a log-spaced power grid: the battery
    branch alone reaches the best of those."""
    bad = set()
    for (value, trial), schemes in _by_point(rows).items():
        if trial >= BATTERY_SAMPLE_TRIALS:
            continue
        ee = float(schemes["ee_optimal"]["ee_bits_per_joule"])
        scen = scenario_of(value, trial)
        best = max(
            user_ee_at(p, u.gamma, scen.params)
            for u in scen.users
            if u.Q > 0.0
            for p in _POWER_GRID_W
        )
        if not _not_below(ee, best):
            bad.add((value, trial))
    return bad


def check_reference_means(mean_rows, ref_rows) -> set:
    """Axis values whose means differ from the recorded ones.

    mean_rows may come from several blocks of one run; rows of one
    (value, scheme) are pooled first.  Trial and infeasible counts must
    match exactly, the means within MEAN_REL.
    """
    def pooled(rows):
        acc = defaultdict(lambda: [0, 0, [0.0, 0.0, 0.0]])
        for r in rows:
            a = acc[(float(r["sweep_value"]), r["scheme"])]
            n, n_bad = int(r["n_trials"]), int(r["n_infeasible"])
            a[0] += n
            a[1] += n_bad
            if n > n_bad:
                for i, col in enumerate(_MEAN_COLUMNS):
                    a[2][i] += (n - n_bad) * float(r[col])
        return {
            k: (n, n_bad, [s / (n - n_bad) if n > n_bad else math.nan for s in sums])
            for k, (n, n_bad, sums) in acc.items()
        }

    got, want = pooled(mean_rows), pooled(ref_rows)
    bad = set()
    for key in set(got) | set(want):
        g, w = got.get(key), want.get(key)
        same = g is not None and w is not None and g[:2] == w[:2]
        if same:
            for a, b in zip(g[2], w[2]):
                if math.isnan(a) or math.isnan(b):
                    same = same and math.isnan(a) and math.isnan(b)
                else:
                    same = same and abs(a - b) <= MEAN_REL * abs(b)
        if not same:
            bad.add(key[0])
    return bad
