"""The reference computation that every timing in the benchmark is scaled by.

The speed of this machine drifts by tens of percent between processes and by
several percent within one process.  The benchmark therefore runs a fixed,
stdlib-only computation next to every operation it times, and reports each
time in "nominal seconds": the time the operation would take on a machine
where the reference takes exactly ``NOMINAL_S``.

The reference is shaped like conreal's own work (exact ``Fraction``
arithmetic with growing denominators, big-integer products and dict traffic,
plus the string, regex and small-object work of argument parsing), so that a
drift in the machine moves both alike.
The collector is paused while it runs and it keeps nothing it allocates, so
the program's heap cannot slow it down.
"""

from __future__ import annotations

import gc
import re
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.002
"""Reference duration, in seconds, that calibrated times are scaled to."""

WINDOW = 4
"""Reference samples on each side of an operation that estimate its speed."""


_PATTERN = re.compile(r"(\d+)/(\d+)")


class _Pair:
    __slots__ = ("head", "words")

    def __init__(self, head, words):
        self.head, self.words = head, words


def _arithmetic() -> int:
    acc = Fraction(0)
    lo, hi = Fraction(1), Fraction(2)
    for i in range(1, 26):
        acc += Fraction(1, i * i + 1)
        mid = (lo + hi) / 2
        if mid * mid <= 2:
            lo = mid
        else:
            hi = mid
    x = 1
    for i in range(120):
        x = x * 2654435761 + i
    table: dict[int, int] = {}
    for i in range(400):
        table[i & 127] = table.get(i & 127, 0) + i
    return (acc.numerator & 0xFF) + (x & 0xFF) + len(table) + (lo.denominator & 1)


def _text() -> int:
    pairs = []
    for i in range(60):
        line = f"--opt{i} {i * 7}/{i + 3} name_{i}"
        m = _PATTERN.search(line)
        pairs.append(_Pair(m.group(1), line.split()))
    return len({p.head: len(p.words) for p in pairs})


def reference() -> float:
    """Run the reference once with the collector paused; its wall time in seconds.

    Half of it is exact arithmetic and half is string, regex and small-object
    work, the two kinds of work conreal's operations mix."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(3):
            _arithmetic()
        for _ in range(6):
            _text()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def local_speeds(ref_times: list[float]) -> list[float]:
    """Per-sample reference time: the median of the samples within WINDOW of it."""
    n = len(ref_times)
    return [statistics.median(ref_times[max(0, i - WINDOW):min(n, i + WINDOW + 1)])
            for i in range(n)]


def calibrate(raw: list[float], ref_times: list[float]) -> list[float]:
    """Scale each raw time by the reference time measured around it."""
    return [r * NOMINAL_S / s for r, s in zip(raw, local_speeds(ref_times))]
