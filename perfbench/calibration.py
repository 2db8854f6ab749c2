"""CPU-speed calibration timed between sweeps.

On a shared machine identical work runs at different speeds from one
minute, or one second, to the next.  The loop below is a fixed piece
of pure-Python scalar work of the same kind as the solvers' hot path:
closures, ``math`` calls and a Newton/bisection root, the search idiom
of ``wpcn_ee.search`` at the commit that added this benchmark, copied
here so that no change to the package can move it.  Timing it next to
each sweep measures how fast the machine is running at that moment.

The loop must never change: ``REFERENCE_S`` and every recorded
calibrated rate depend on it.
"""

from __future__ import annotations

import math
import time

# Calibrated rates are rates on a machine where one loop() takes this
# long.  It is about the loop's time in the slower of the two speeds
# measured on the machine that recorded the baseline.
REFERENCE_S = 0.020

_LN2 = math.log(2.0)
_ROOTS = 2000


def _newton_bisect(f, fprime, lo, hi, x0, rtol=1e-14, max_iter=100):
    a, b = lo, hi
    fa = f(a)
    x = min(max(x0, a), b)
    for _ in range(max_iter):
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
        else:
            b = x
        if b - a <= rtol * max(abs(a), abs(b), 1e-300):
            return 0.5 * (a + b)
        d = fprime(x)
        xn = x - fx / d if d != 0.0 else a
        x = xn if a < xn < b else 0.5 * (a + b)
    return 0.5 * (a + b)


def loop() -> float:
    """_ROOTS marginal-rate roots of the throughput_max kind."""
    acc = 0.0
    for i in range(_ROOTS):
        bk = 1e-3 * (1 + i % 97)
        target = 0.5 + (i % 13) * 0.1
        acc += _newton_bisect(
            lambda u: math.log2(1.0 + u) - (u + bk) / ((1.0 + u) * _LN2) - target,
            lambda u: (u + bk) / ((1.0 + u) ** 2 * _LN2),
            0.0,
            1e6,
            1.0,
        )
    return acc


def loop_seconds() -> float:
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0
