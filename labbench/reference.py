"""A fixed reference computation, timed beside the workload, that
measures how fast the machine runs at the moment.

The benchmark runs on a few cores of a shared host.  The host's speed
drifts by 30% and more over minutes as other tenants' load comes and
goes, and a whole run can fall in a slow or a fast stretch, so raw times
of the same code spread widely from run to run.  The drift slows this
loop and the workload alike, so a time divided by the loop's time at
the same moment reads steadily; it is reported as
`raw * REF_S / loop time`, in seconds at the speed where the loop takes
REF_S.

The loop runs mpmath logs and exps, first touches of fresh memory
pages, and dict and `Fraction` arithmetic, the kinds of work the
workloads and their set-ups do.  It calls no zarank code, so a change
to zarank does not move it.  mpmath is imported on first use, so that
importing this module does not take its import out of a timed set-up.
"""

from __future__ import annotations

import mmap
import statistics
import time
from fractions import Fraction

# The loop's median time on the 2-vCPU x86-64 VM the benchmark was
# written on.  A constant: it only sets the scale.
REF_S = 0.022

_MAP_BYTES = 2 << 20
_DICT_LEN = 20_000


def _loop() -> int:
    import mpmath
    total = 0
    for _ in range(2):        # first touch of fresh pages
        with mmap.mmap(-1, _MAP_BYTES) as pages:
            for offset in range(0, _MAP_BYTES, mmap.PAGESIZE):
                pages[offset] = 1
    squares = {i: i * i for i in range(_DICT_LEN)}
    for i in range(0, 100_000, 3):
        total += squares[i % _DICT_LEN]
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i * i + 1)
    with mpmath.workprec(200):
        x = mpmath.mpf(0)
        for i in range(1, 200):
            x += mpmath.log(i) * mpmath.exp(mpmath.mpf(1) / i)
    return total + acc.denominator % 7 + int(x) % 7


def sample() -> float:
    """Seconds that one run of the loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def speed_now() -> float:
    """Median of three loop times, after one untimed warm-up run (the
    first run imports mpmath)."""
    _loop()
    return statistics.median(sample() for _ in range(3))


def scale(raw_s: float, loop_s: float) -> float:
    """`raw_s` seconds measured while the loop took `loop_s`, in seconds
    at reference speed."""
    return raw_s * REF_S / loop_s
