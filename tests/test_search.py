"""Scalar searches: golden section, the brentq port against scipy's; the
package's import of scipy (none) and the imports between its modules."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

import wpcn_ee
from wpcn_ee.experiments import golden_section_max
from wpcn_ee.qos import brentq, newton_bisect

from test_spans import span_bindings


def _outcome(solver, f, a, b, maxiter):
    """(result or exception type, evaluation points) of one solve."""
    points = []

    def recorded(x):
        points.append(x)
        return f(x)

    try:
        result = solver(recorded, a, b, maxiter)
    except (ValueError, RuntimeError) as exc:
        result = type(exc)
    return result, points


def _scipy(f, a, b, maxiter):
    return scipy_brentq(f, a, b, xtol=2e-12, rtol=1e-15, maxiter=maxiter)


def _assert_same(f, a, b, maxiter):
    want, want_points = _outcome(_scipy, f, a, b, maxiter)
    got, got_points = _outcome(brentq, f, a, b, maxiter)
    assert [x.hex() for x in got_points] == [x.hex() for x in want_points]
    assert all(type(x) is float for x in got_points)
    if isinstance(want, float):
        assert type(got) is float and got.hex() == want.hex()
    else:
        assert got is want
    return got


def _nan_inside(x):
    return math.nan if 0.4 < x < 0.6 else x - 0.5


CASES = {
    "cubic": (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, 200, float),
    "exponential": (lambda x: math.exp(x) - 10.0, 0.0, 5.0, 200, float),
    "decreasing": (lambda x: 1.0 / x - 0.3, 0.1, 10.0, 200, float),
    "steep-tanh": (lambda x: math.tanh(1e4 * (x - 0.123)), -3.0, 7.0, 200, float),
    "large-scale": (lambda x: x - 3.7e8, 0.0, 1e9, 200, float),
    "reversed-bracket": (lambda x: x**3 - 2.0 * x - 5.0, 3.0, 2.0, 200, float),
    "numpy-values": (lambda x: np.float64(x) ** 2 - 2.0, np.float64(0.0), np.float64(2.0), 200, float),
    # tiny values underflow the extrapolation's denominator to 0
    "underflowed-extrapolation": (lambda x: 1e-300 * (x - 0.3) ** 3, -1.0, 2.0, 200, float),
    "sign-step":(lambda x: 1.0 if x >= 0.3 else -1.0, 0.0, 1.0, 200, float),
    "jump-with-slope": (lambda x: (x > 0.7) - 0.5 + 0.1 * (x - 0.7), 0.0, 1.0, 200, float),
    "root-at-a": (lambda x: x, 0.0, 1.0, 200, float),
    "root-at-b": (lambda x: x, -1.0, 0.0, 200, float),
    "same-sign": (lambda x: x * x + 1.0, -1.0, 1.0, 200, ValueError),
    "nan-at-a": (lambda x: math.nan if x == 0.0 else x, 0.0, 1.0, 200, ValueError),
    "nan-inside": (_nan_inside, 0.0, 1.0, 200, ValueError),
    "maxiter-exhausted": (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, 3, RuntimeError),
    "maxiter-zero": (lambda x: x - 0.25, 0.0, 1.0, 0, RuntimeError),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_brentq_matches_scipy_point_for_point(case):
    f, a, b, maxiter, expected = case
    got = _assert_same(f, a, b, maxiter)
    assert isinstance(got, float) if expected is float else got is expected


def test_brentq_matches_scipy_on_random_brackets():
    rng = np.random.default_rng(1973)
    kinds = (
        lambda c, s: lambda x: s * (x - c) ** 3,
        lambda c, s: lambda x: s * math.atan(x - c),
        lambda c, s: lambda x: s * ((x > c) - 0.5 + 0.3 * (x - c)),
        lambda c, s: lambda x: s * (1.0 if x >= c else -1.0),
        lambda c, s: lambda x: s * math.expm1(min(5.0 * (x - c), 700.0)),
    )
    for i in range(400):
        c = float(rng.uniform(-5.0, 5.0) * 10.0 ** rng.uniform(-6.0, 6.0))
        s = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.0, 8.0))
        f = kinds[i % len(kinds)](c, s)
        span = float(10.0 ** rng.uniform(-10.0, 7.0))
        a, b = c - span * float(rng.random()), c + span * float(rng.random())
        maxiter = int(rng.choice([2, 10, 200, 200]))
        _assert_same(f, a, b, maxiter)
        _assert_same(f, b, a, maxiter)


def test_importing_the_package_loads_no_scipy():
    # scipy is the tests' reference for the brentq and Lambert W ports,
    # not a runtime dependency
    src = Path(wpcn_ee.__file__).resolve().parent.parent
    code = (
        "import sys, wpcn_ee, wpcn_ee.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _imports(path):
    """(line, top-level module, names bound) of each import in a file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.end_lineno, alias.name.split(".")[0], [alias.asname or alias.name]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.asname or alias.name for alias in node.names]
            yield node.end_lineno, (node.module or "").split(".")[0], names


def test_numpy_is_imported_only_for_the_draws_and_the_grid():
    # the solvers are plain Python, so their answers do not follow
    # numpy's CPU dispatch; channels (the RNG stream) and oracle (the
    # grid) are the only numpy users
    root = Path(__file__).resolve().parent.parent
    package = root / "src" / "wpcn_ee"
    users = sorted(
        path.name
        for path in package.glob("*.py")
        if any(module == "numpy" for _, module, _ in _imports(path))
    )
    assert users == ["channels.py", "oracle.py"]

    # an import kept only for the benchmark's layer spans must name a
    # binding the spans install
    bound = {(module, attr) for module, attr, _ in span_bindings()}
    span_only = []
    for path in sorted((root / "src").rglob("*.py")):
        lines = path.read_text().splitlines()
        for line, _, names in _imports(path):
            if lines[line - 1].endswith("# noqa: F401"):
                span_only += [(path.stem, name) for name in names]
    assert span_only
    assert [pair for pair in span_only if pair not in bound] == []


def test_only_qos_reads_its_private_names():
    # the draw record and the helpers behind it are qos's own: the rate
    # ceiling and the feasibility test read them from inside qos
    package = Path(__file__).resolve().parent.parent / "src" / "wpcn_ee"
    reached = [
        (path.name, alias.name)
        for path in sorted(package.glob("*.py"))
        if path.name != "qos.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module in ("qos", "wpcn_ee.qos")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert reached == []

    # throughput_max is its docstring plus the imports the spans bind
    path = package / "throughput_max.py"
    lines = path.read_text().splitlines()
    docstring, *imports = ast.parse(path.read_text()).body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert imports and all(isinstance(node, ast.ImportFrom) for node in imports)
    assert all(lines[node.end_lineno - 1].endswith("# noqa: F401") for node in imports)
    bound = {(module, attr) for module, attr, _ in span_bindings()}
    names = [alias.asname or alias.name for node in imports for alias in node.names]
    assert [name for name in names if ("throughput_max", name) not in bound] == []


def _names(node):
    """Every name a node reads, binds as an attribute or imports."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_every_private_helper_has_a_caller():
    # a module-level private function or class that nothing in src/
    # references outside its own definition is dead code
    package = Path(__file__).resolve().parent.parent / "src" / "wpcn_ee"
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for definition in tree.body:
            if not (
                isinstance(definition, (ast.FunctionDef, ast.ClassDef))
                and definition.name.startswith("_")
            ):
                continue
            inside = {id(node) for node in ast.walk(definition)}
            if not any(
                _names(node) == definition.name
                for other, other_tree in trees.items()
                for node in ast.walk(other_tree)
                if not (other == module and id(node) in inside)
            ):
                unused.append(f"{module}.{definition.name}")
    assert unused == []


def test_newton_bisect_returns_a_root_at_the_left_end():
    # f(lo) == 0 is answered with lo itself, before any step
    f, calls = _counted(lambda x: x - 1.0)
    assert newton_bisect(f, lambda x: 1.0, 1.0, 3.0, 2.0) == 1.0
    assert calls == [1.0]


def _counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (2.0, 5.0), (-3.0, 0.5)])
def test_golden_section_max(lo, hi):
    width = hi - lo
    # a maximum at either endpoint comes back exactly, not a nearby
    # point of the shrunken bracket
    for f, want in ((lambda x: lo - x, lo), (lambda x: x - hi, hi)):
        x, fx, _ = golden_section_max(f, lo, hi)
        assert (x, fx) == (want, 0.0)
    # an interior maximum lands within 1e-9 of the interval's width
    peak = lo + 0.3 * width
    f, calls = _counted(lambda x: -((x - peak) ** 2))
    x, fx, n = golden_section_max(f, lo, hi)
    # two probes, one per step until the bracket is 1e-9 of its width
    # (0.618^44 < 1e-9 < 0.618^43), and the two endpoints
    assert n == len(calls) == 2 + 44 + 2
    assert abs(x - peak) <= 1e-9 * width
    assert fx == -((x - peak) ** 2)
