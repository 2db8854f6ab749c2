"""Acceptance gate: one test per numbered criterion, each printing a
single PASS or FAIL line with its measured worst case.

Criterion 4b is expected to fail: on the pinned five-user scenario the
battery-only branch dominates the harvesting branch at every power
level, so the required mode switch cannot occur.  The companion test
right after it shows the switch machinery working once the third
user's uplink gain is lowered.  See the repository notes for the
analysis; the check is kept honest rather than weakened.
"""

import dataclasses
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from wpcn_ee import (
    ExperimentConfig,
    GridSpec,
    MODE_IELCN,
    MODE_INFEASIBLE,
    MODE_PWPCN,
    SweepSpec,
    dbm_to_watts,
    default_geometry,
    default_system_params,
    grid_search_best_effort,
    inner_time_allocation,
    max_throughput,
    max_user_ee,
    run_sweep,
    scenario_from_values,
    select_pwpcn_set,
    solve_best_effort,
    solve_pwpcn,
    solve_qos,
    solve_qos_detailed,
    system_ee,
)
from wpcn_ee.cli import main as cli_main
from wpcn_ee.model import LN2

from conftest import random_scenario, stock_params, with_floor
from test_throughput_max import grid_best_rate


def verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"criterion {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {tag}: {detail}"


def test_criterion_01_user_ee_matches_dense_scan():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260822)
    grid = np.geomspace(1e-8, 1e3, 1_000_000)
    log_term = (np.log1p(grid) / LN2).astype(np.float32)
    t32 = grid.astype(np.float32)
    buf = np.empty_like(t32)
    base = stock_params()

    worst = 0.0
    for _ in range(1000):
        gamma = float(10.0 ** rng.uniform(-2.0, 4.0))
        W = float(10.0 ** rng.uniform(-1.0, 6.0))
        vs = float(rng.uniform(0.3, 1.0))
        pc = float(10.0 ** rng.uniform(-4.0, -1.0))
        par = dataclasses.replace(base, W=W, varsigma=vs, pc=pc)
        point = max_user_ee(gamma, par)

        # scan over p via t = p * gamma on the shared grid
        np.multiply(t32, np.float32(1.0 / (gamma * vs)), out=buf)
        np.add(buf, np.float32(pc), out=buf)
        np.divide(log_term, buf, out=buf)
        idx = int(buf.argmax())
        assert 0 < idx < len(buf) - 1, "scan peak fell on a grid edge"
        scan_best = W * float(buf[idx])
        worst = max(worst, abs(point.ee_star - scan_best) / scan_best)

    analytic = max_user_ee(1.0, dataclasses.replace(base, W=1.0, varsigma=1.0, pc=1.0))
    p_err = abs(analytic.p_star - (math.e - 1.0))
    ee_err = abs(analytic.ee_star - 1.0 / (math.e * LN2))
    elapsed = time.perf_counter() - t0
    verdict(
        "1",
        worst <= 1e-6 and p_err <= 1e-9 and ee_err <= 1e-9 and elapsed < 5.0,
        f"scan rel {worst:.2e}, analytic errs {p_err:.1e}/{ee_err:.1e}, {elapsed:.2f} s",
    )


def test_criterion_02_closed_form_consistency():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(200):
        K = int(rng.integers(1, 7))
        scen = random_scenario(rng, K, q_mode="zero")
        par = scen.params
        rep = solve_pwpcn(scen)
        direct = system_ee(rep.alloc, scen)
        worst = max(worst, abs(rep.ee - direct) / max(rep.ee, 1e-300))
        assert rep.alloc.P0 == par.Pmax
        total = rep.alloc.tau0 + math.fsum(rep.alloc.tau)
        assert abs(total - par.Tmax) <= 1e-9 * par.Tmax
        for k in rep.scheduled:
            budget = par.eta * par.Pmax * rep.alloc.tau0 * scen.h[k]
            spend = (rep.alloc.p[k] / par.varsigma + par.pc) * rep.alloc.tau[k]
            assert abs(spend - budget) <= 1e-9 * budget
    verdict("2", worst <= 1e-9, f"worst closed-vs-direct rel {worst:.2e} over 200")


def test_criterion_03_greedy_equals_exhaustive():
    rng = np.random.default_rng(37)
    worst = 0.0
    for _ in range(100):
        K = int(rng.integers(1, 9))
        h = rng.uniform(1e-3, 0.1, size=K)
        ee = rng.uniform(1e3, 1e6, size=K)
        C = float(rng.uniform(0.2, 5.0))
        picked = select_pwpcn_set(list(zip(h, ee)), C)

        def set_ee(S):
            if not S:
                return 0.0
            num = math.fsum(h[i] * ee[i] for i in S)
            return num / (C + math.fsum(h[i] for i in S))

        best = max(
            set_ee(S)
            for r in range(0, K + 1)
            for S in itertools.combinations(range(K), r)
        )
        worst = max(worst, abs(set_ee(picked) - best) / max(best, 1e-300))
    verdict("3", worst <= 1e-12, f"worst greedy-vs-exhaustive rel {worst:.2e} over 100")


def test_criterion_04a_combiner_meets_grid_oracle():
    rng = np.random.default_rng(41)
    worst = -math.inf
    for _ in range(50):
        scen = random_scenario(rng, 2, q_mode="mixed")
        rep = solve_best_effort(scen)
        oracle = grid_search_best_effort(scen, GridSpec(n_tau=25, n_p=15))
        assert "resolution_bound_ee" in oracle.iterations
        bound = oracle.iterations["resolution_bound_ee"]
        gap = oracle.ee - bound - rep.ee
        worst = max(worst, gap / max(oracle.ee, 1.0))
    verdict("4a", worst <= 1e-9, f"worst oracle-minus-bound excess rel {worst:.2e}")


def pinned_mode_sweep(gamma3: float) -> list[str]:
    par = stock_params()
    modes = []
    for dbm in np.linspace(10.0, 60.0, 51):
        p = dataclasses.replace(par, Pmax=dbm_to_watts(float(dbm)))
        scen = scenario_from_values(
            p, [0.1] * 5, [8.0, 6.0, gamma3, 0.3, 0.2], [0.0, 0.0, 1.0, 1.0, 1.0]
        )
        modes.append(solve_best_effort(scen).mode)
    return modes


def count_switches(modes: list[str]) -> int:
    return sum(
        1
        for a, b in zip(modes, modes[1:])
        if a == MODE_IELCN and b == MODE_PWPCN
    )


def test_criterion_04b_single_mode_switch_on_pinned_scenario():
    modes = pinned_mode_sweep(gamma3=5.0)
    switches = count_switches(modes)
    verdict(
        "4b",
        switches == 1,
        f"{switches} battery-to-harvesting switches across 10-60 dBm "
        f"(modes {modes[0]}..{modes[-1]}); the best battery user's standalone "
        "EE exceeds the harvesting branch's large-power limit, so no switch exists",
    )


def test_criterion_04b_companion_crossover_variant():
    # same scenario with the dominant battery user's uplink gain lowered:
    # the harvesting branch overtakes exactly once as power grows
    modes = pinned_mode_sweep(gamma3=1.2)
    switches = count_switches(modes)
    assert modes[0] == MODE_IELCN and modes[-1] == MODE_PWPCN
    verdict("4b-companion", switches == 1, f"{switches} switch on the lowered-gain variant")


def test_criterion_05_rate_solver_grid_and_tightness():
    rng = np.random.default_rng(43)
    worst = -math.inf
    for i in range(30):
        K = 1 + (i % 2)
        mode = ("zero", "mixed", "positive")[i % 3]
        scen = random_scenario(rng, K, q_mode=mode)
        par = scen.params
        sol = max_throughput(scen)
        best, res = grid_best_rate(scen, n=70)
        worst = max(worst, (best - res - sol.R_star) / max(best, 1.0))
        alloc = sol.alloc
        assert alloc.P0 == par.Pmax
        total = alloc.tau0 + math.fsum(alloc.tau)
        assert abs(total - par.Tmax) <= 1e-7 * par.Tmax
        for k, tau_k in enumerate(alloc.tau):
            if tau_k <= 0.0:
                continue
            budget = par.eta * par.Pmax * alloc.tau0 * scen.h[k] + scen.Q[k]
            spend = (alloc.p[k] / par.varsigma + par.pc) * tau_k
            assert abs(spend - budget) <= 1e-7 * budget

    # unimodality witness on a fresh handful of instances
    for _ in range(5):
        scen = random_scenario(rng, 3, q_mode="zero")
        taus = np.linspace(0.0, scen.params.Tmax, 60)
        rates = [inner_time_allocation(t, scen)[1] for t in taus]
        peak = int(np.argmax(rates))
        tol = 1e-9 * max(rates)
        assert all(b >= a - tol for a, b in zip(rates[:peak], rates[1 : peak + 1]))
        assert all(b <= a + tol for a, b in zip(rates[peak:], rates[peak + 1 :]))
    verdict("5", worst <= 1e-9, f"worst grid excess rel {worst:.2e} over 30, witness ok")


def test_criterion_06_kkt_suite():
    rng = np.random.default_rng(47)
    checked = 0
    for i in range(100):
        K = 2 + (i % 4)
        mode = ("zero", "mixed", "positive")[i % 3]
        scen = random_scenario(rng, K, q_mode=mode)
        r_star = max_throughput(scen).R_star
        floored = with_floor(scen, float(rng.uniform(0.3, 0.95)) * r_star)
        rep, duals, trace = solve_qos_detailed(floored)
        assert rep.mode != MODE_INFEASIBLE
        par = floored.params

        qs = [row[1] for row in trace]
        for a, b in zip(qs[:-2], qs[1:-1]):
            assert b > a, "q must strictly increase"
        if len(qs) >= 2:
            # the closing iterate may re-express the fixed point after the
            # residual has been driven through zero; permit only a
            # noise-level correction there
            assert qs[-1] > qs[-2] or qs[-1] >= qs[-2] * (1.0 - 1e-12)
        assert abs(trace[-1][2]) <= 1e-8
        assert len(trace) <= 10
        assert duals.vartheta >= 0.0 and duals.delta >= 0.0
        assert all(m >= 0.0 for m in duals.mu)

        W1 = par.W * (1.0 + duals.vartheta)
        cln = W1 * par.varsigma / LN2
        total = rep.alloc.tau0 + math.fsum(rep.alloc.tau)
        slack_time = par.Tmax - total
        for k in rep.scheduled:
            if duals.mu[k] == 0.0:
                continue  # threshold user pinned at the scheduling boundary
            s = duals.q + duals.mu[k]
            resid = (
                W1 * math.log2(floored.gamma[k] * cln / s)
                - (cln - s / floored.gamma[k]) / par.varsigma
                - s * par.pc
                - duals.delta
            )
            assert abs(resid) <= 1e-6 * W1
            budget = par.eta * par.Pmax * rep.alloc.tau0 * floored.h[k] + floored.Q[k]
            spend = (rep.alloc.p[k] / par.varsigma + par.pc) * rep.alloc.tau[k]
            assert abs(spend - budget) <= 1e-6 * max(budget, 1e-12)

        if slack_time > 1e-6 * par.Tmax:
            for k in rep.scheduled:
                p_star = max_user_ee(floored.gamma[k], par).p_star
                assert rep.alloc.p[k] == pytest.approx(p_star, rel=1e-6)

        assert duals.delta * slack_time <= 1e-6 * max(rep.throughput, 1.0)
        if duals.vartheta > 0.0:
            assert abs(rep.throughput - par.Rmin) <= 1e-6 * max(par.Rmin, 1.0)
        checked += 1
    verdict("6", checked == 100, f"{checked}/100 scenarios satisfied the full dual suite")


def test_criterion_07_loose_floor_reduction():
    rng = np.random.default_rng(53)
    worst = 0.0
    for i in range(20):
        K = 2 + (i % 5)
        mode = ("zero", "mixed", "positive")[i % 3]
        scen = random_scenario(rng, K, q_mode=mode)
        be = solve_best_effort(scen)
        qos = solve_qos(with_floor(scen, 0.5 * be.throughput))
        worst = max(worst, abs(qos.ee - be.ee) / be.ee)
    verdict("7", worst <= 1e-6, f"worst floor-vs-free rel gap {worst:.2e} over 20")


def sweep_cfg(tmp_path: Path, name: str, axis: str, values, K: int, schemes, trials=200):
    return ExperimentConfig(
        params=default_system_params(),
        geometry=default_geometry(K=K),
        initial_energy=0.0,
        sweep=SweepSpec(axis=axis, values=tuple(values), trials=trials, base_seed=8700),
        schemes=tuple(schemes),
        rho_list=(1.0,),
        grid=GridSpec(),
        output=str(tmp_path / name),
    )


def mean_table(mean_path: Path):
    import csv

    with open(mean_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    table = {}
    for r in rows:
        table[(r[2], float(r[1]))] = (int(r[3]), int(r[4]), float(r[5]))
    return table


def series(table, scheme, values):
    assert all(table[(scheme, v)][1] == 0 for v in values), "infeasible trials present"
    return [table[(scheme, v)][2] for v in values]


def test_criterion_08a_power_sweep_trends(tmp_path):
    t0 = time.perf_counter()
    values = (20.0, 25.0, 30.0, 35.0, 40.0, 43.0)
    cfg = sweep_cfg(
        tmp_path, "pmax.csv", "Pmax_dBm", values, 5,
        ("ee_optimal", "throughput_optimal", "fixed_proportion"),
    )
    _, mean_path = run_sweep(cfg)
    table = mean_table(mean_path)
    opt = series(table, "ee_optimal", values)
    thr = series(table, "throughput_optimal", values)
    fixed = series(table, "fixed_proportion_rho1", values)
    elapsed = time.perf_counter() - t0

    nondec = all(b >= a * (1.0 - 1e-12) for a, b in zip(opt, opt[1:]))
    peak = int(np.argmax(thr))
    interior = 0 < peak < len(values) - 1
    rises = all(b > a for a, b in zip(thr[:peak], thr[1 : peak + 1]))
    falls = all(b < a for a, b in zip(thr[peak:], thr[peak + 1 :]))
    dominated = all(f <= o * (1.0 + 1e-12) for f, o in zip(fixed, opt))
    verdict(
        "8a",
        nondec and interior and rises and falls and dominated and elapsed < 300.0,
        f"peak at {values[peak]} dBm, nondec {nondec}, unimodal {rises and falls}, "
        f"baseline dominated {dominated}, {elapsed:.0f} s",
    )


def test_criterion_08b_floor_sweep_trends(tmp_path):
    values = (50e3, 120e3, 190e3, 220e3, 245e3, 255e3)
    curves = {}
    ok_time = True
    for K in (5, 10):
        t0 = time.perf_counter()
        cfg = sweep_cfg(tmp_path, f"rmin_k{K}.csv", "Rmin", values, K, ("ee_optimal",))
        _, mean_path = run_sweep(cfg)
        curves[K] = series(mean_table(mean_path), "ee_optimal", values)
        ok_time = ok_time and (time.perf_counter() - t0) < 300.0

    ok = ok_time
    knees = {}
    for K, m in curves.items():
        ok = ok and all(b <= a * (1.0 + 1e-12) for a, b in zip(m, m[1:]))
        ok = ok and m[1] >= m[0] * 0.99  # flat head
        knee = next((i for i, v in enumerate(m) if v < m[0] * 0.99), None)
        knees[K] = knee
        ok = ok and knee is not None
        if knee is not None:
            ok = ok and all(m[i] < m[i - 1] for i in range(knee, len(m)))
    drop5 = curves[5][3] - curves[5][-1]
    drop10 = curves[10][3] - curves[10][-1]
    ok = ok and drop10 > drop5
    verdict(
        "8b",
        ok,
        f"knees at idx {knees}, tail drops K5 {drop5:.3g} < K10 {drop10:.3g}",
    )


def test_criterion_08c_pathloss_sweep_trends(tmp_path):
    t0 = time.perf_counter()
    values = (2.0, 2.4, 2.8, 3.2, 3.6)
    cfg = sweep_cfg(
        tmp_path, "alpha.csv", "alpha", values, 5,
        ("ee_optimal", "throughput_optimal", "fixed_proportion"),
    )
    _, mean_path = run_sweep(cfg)
    table = mean_table(mean_path)
    opt = series(table, "ee_optimal", values)
    thr = series(table, "throughput_optimal", values)
    fixed = series(table, "fixed_proportion_rho1", values)
    elapsed = time.perf_counter() - t0

    decreasing = all(
        all(b < a for a, b in zip(m, m[1:])) for m in (opt, thr, fixed)
    )
    gap_shrinks = (opt[0] - thr[0]) > (opt[-1] - thr[-1]) and (
        opt[0] - fixed[0]
    ) > (opt[-1] - fixed[-1])
    verdict(
        "8c",
        decreasing and gap_shrinks and elapsed < 300.0,
        f"all decreasing {decreasing}, gaps shrink {gap_shrinks}, {elapsed:.0f} s",
    )


def test_criterion_09_cli_determinism(tmp_path):
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(
        json.dumps(
            {
                "geometry": {"K": 2},
                "sweep": {
                    "axis": "Pmax_dBm",
                    "values": [30.0, 43.0],
                    "trials": 2,
                    "base_seed": 11,
                },
                "schemes": ["ee_optimal"],
            }
        )
    )
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append((out.read_bytes(), (tmp_path / (out.stem + "_mean.csv")).read_bytes()))
    single = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert cli_main(["solve-best-effort", "--seed", "6", "--out", str(out)]) == 0
        single.append(out.read_bytes())
    verdict(
        "9",
        outs[0] == outs[1] and single[0] == single[1],
        "sweep and single-solve CSVs byte-identical across reruns",
    )
