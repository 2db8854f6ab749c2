"""Layer spans for the traced run, recorded from outside the package.

Each layer of ``wpcn_ee`` reaches the next through a module-global name
(``experiments.solve_qos``, ``qos.newton_bisect``, ...).  ``installed``
swaps those names for timing wrappers and puts the originals back on
exit, so the package itself is never edited and an untraced run pays
nothing.  A span's self time is its duration minus the time of the
wrapped spans it called.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from pathlib import Path

# (module, attribute, metric name).  The metric name is the layer that
# owns the called function, not the caller whose global is replaced, so
# both callers of golden_section_max add to one search entry.
BINDINGS = (
    ("cli", "load_config", "experiments.load_config"),
    ("cli", "run_sweep", "experiments.run_sweep"),
    ("experiments", "run_scheme", "experiments.run_scheme"),
    ("experiments", "write_rows", "experiments.write_rows"),
    ("experiments", "baseline_fixed_proportion", "experiments.baseline_fixed_proportion"),
    ("experiments", "generate_scenario", "channels.generate_scenario"),
    ("experiments", "with_initial_energy", "model.with_initial_energy"),
    ("experiments", "check_constraints", "model.check_constraints"),
    ("experiments", "solve_best_effort", "best_effort.solve_best_effort"),
    ("best_effort", "max_user_ee", "user_ee.max_user_ee"),
    ("experiments", "max_throughput", "throughput_max.max_throughput"),
    ("throughput_max", "newton_bisect", "throughput_max.newton_bisect"),
    ("throughput_max", "golden_section_max", "search.golden_section_max"),
    ("experiments", "golden_section_max", "search.golden_section_max"),
    ("experiments", "solve_qos", "qos.solve_qos"),
    ("qos", "newton_bisect", "qos.newton_bisect"),
    ("qos", "brentq", "qos.brentq"),
    ("qos", "throughput", "qos.inner_points"),
)

CLI_MAIN = "cli.main"

# Layers whose per-call durations are kept for percentiles.  The
# per-root layers are left out: a list append per root would inflate
# the overhead the traced run reports.
SAMPLED = ("experiments.run_scheme", "qos.solve_qos")


@dataclass
class LayerStat:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    samples_ns: list[int] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)


def _golden_evals(stat: LayerStat, result) -> None:
    stat.extra["evals"] = stat.extra.get("evals", 0) + result[2]


def _qos_iterations(stat: LayerStat, result) -> None:
    it = result.iterations
    stat.extra["outer"] = stat.extra.get("outer", 0) + it.get("outer", 0)
    stat.extra["filled"] = stat.extra.get("filled", 0) + (1 if it.get("fills", 0) > 0 else 0)


def _written_bytes(stat: LayerStat, result) -> None:
    stat.extra["bytes"] = stat.extra.get("bytes", 0) + Path(result).stat().st_size


_ON_RESULT = {
    "search.golden_section_max": _golden_evals,
    "qos.solve_qos": _qos_iterations,
    "experiments.write_rows": _written_bytes,
}


class Tracer:
    """Per-layer call counts, inclusive and self times, and call samples."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStat] = {}
        self._child_ns: list[int] = []

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, LayerStat())
        stack = self._child_ns
        clock = time.perf_counter_ns
        on_result = _ON_RESULT.get(name)
        samples = stat.samples_ns if name in SAMPLED else None

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                stat.calls += 1
                stat.total_ns += dur
                stat.self_ns += dur - child
                if samples is not None:
                    samples.append(dur)

        if on_result is None:
            return traced

        def traced_with_result(*args, **kwargs):
            result = traced(*args, **kwargs)
            on_result(stat, result)
            return result

        return traced_with_result

    def stat(self, name: str) -> LayerStat:
        return self.stats.get(name, LayerStat())

    def counts(self) -> dict[str, float]:
        """Every machine-independent count; equal across reruns of one input."""
        out = {}
        for name, st in sorted(self.stats.items()):
            out[name + ".calls"] = st.calls
            for key, value in sorted(st.extra.items()):
                out[f"{name}.{key}"] = value
        return out


@contextlib.contextmanager
def installed(tracer: Tracer, modules: dict):
    """Swap every binding in BINDINGS for a traced wrapper; restore on exit."""
    saved = []
    try:
        for mod, attr, name in BINDINGS:
            orig = getattr(modules[mod], attr)
            saved.append((modules[mod], attr, orig))
            setattr(modules[mod], attr, tracer.wrap(name, orig))
        yield
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)
    for module, attr, orig in saved:
        if getattr(module, attr) is not orig:
            raise RuntimeError(f"binding {module.__name__}.{attr} was not restored")
