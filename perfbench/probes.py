"""K-scaling probe: direct public calls timed at K in {2, 5, 20, 50}.

The scenarios come from the workload seed through the stock geometry
and parameters.  Floors follow the library quick start: Rmin at 0.8 of
the rate ceiling, and q for dinkelbach_T at half the best-effort EE.
The best-effort probe gives every second user a 0.05 J battery so both
of its branches run.  Times are medians of REPS calls, taken with the
package untraced.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

PROBE_K = (2, 5, 20, 50)
REPS = 3
USER_EE_REPS = 200
BATTERY_J = (0.0, 0.05)


def probe_metric_names() -> list[str]:
    names = []
    for solver in ("max_throughput", "dinkelbach_T", "solve_qos", "solve_best_effort"):
        names += [f"probe.{solver}.K{K}.ms_p50" for K in PROBE_K]
    return names + ["probe.max_user_ee.us_p50"]


def _median_s(fn, reps: int) -> tuple[float, object]:
    times, result = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def run_probes(wp, seed: int) -> dict[str, float]:
    """wp is the imported wpcn_ee package."""
    out = {}
    par = wp.default_system_params()
    for K in PROBE_K:
        scen = wp.generate_scenario(wp.default_geometry(K=K, seed=seed), par)
        t, ceiling = _median_s(lambda: wp.max_throughput(scen), REPS)
        out[f"probe.max_throughput.K{K}.ms_p50"] = 1e3 * t

        floored = dataclasses.replace(
            scen, params=dataclasses.replace(par, Rmin=0.8 * ceiling.R_star)
        )
        q = 0.5 * wp.solve_best_effort(floored).ee
        t, _ = _median_s(lambda: wp.dinkelbach_T(q, floored), REPS)
        out[f"probe.dinkelbach_T.K{K}.ms_p50"] = 1e3 * t
        t, _ = _median_s(lambda: wp.solve_qos(floored), REPS)
        out[f"probe.solve_qos.K{K}.ms_p50"] = 1e3 * t

        charged = wp.with_initial_energy(scen, [BATTERY_J[k % 2] for k in range(K)])
        t, _ = _median_s(lambda: wp.solve_best_effort(charged), REPS)
        out[f"probe.solve_best_effort.K{K}.ms_p50"] = 1e3 * t

    gammas = [u.gamma for u in scen.users]
    per_user = []
    for g in gammas:
        t, _ = _median_s(lambda: wp.max_user_ee(g, par), USER_EE_REPS // len(gammas))
        per_user.append(t)
    out["probe.max_user_ee.us_p50"] = 1e6 * statistics.median(per_user)
    return out
