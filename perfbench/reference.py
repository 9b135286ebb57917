"""A fixed pure-Python kernel that measures how fast the machine runs
Python code at the moment.

On a shared host the same pass of the same reports runs 20-45% slower
for stretches of minutes, in process time as in wall time, because
other tenants contend for the core. The benchmark times this kernel
ten times a second while the reports run and scales its times by
`NOMINAL_S / mean`, so a run made in a slow phase reads as it would at
the nominal speed. The kernel does what the program does most:
fraction-free elimination on integers, products of sparse polynomials
keyed by exponent tuples, `Fraction` arithmetic and string formatting.
It never imports `cilines`, so a change to the program cannot change
the yardstick.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time
from fractions import Fraction

# about the kernel's mean time, sampled while the program runs, on the
# machine the baseline was taken on in a fast phase; times are scaled to
# this speed
NOMINAL_S = 0.00110

_MATRIX = [[(7 * i * i + 11 * j + 3 * i * j + 5) % 97 - 48 for j in range(8)] for i in range(8)]
_POLY = {(i, j, 4 - i - j): (13 * i + 7 * j + 1) % 101 for i in range(5) for j in range(5 - i)}


def _bareiss() -> int:
    a = [row[:] for row in _MATRIX]
    n, prev = len(a), 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    break
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[-1][-1]


def _poly_square(p: int = 101) -> int:
    out: dict = {}
    for e, c in _POLY.items():
        for f, d in _POLY.items():
            key = (e[0] + f[0], e[1] + f[1], e[2] + f[2])
            out[key] = (out.get(key, 0) + c * d) % p
    return len(out)


def _format_and_split() -> int:
    text = "+".join(f"{i}*x{i % 7}^{i % 5}" for i in range(300))
    return len(text.split("+"))


def _fractions() -> Fraction:
    a = Fraction(1)
    for i in range(1, 60):
        a = a * Fraction(i, i + 1) + Fraction(1, i)
    return a


def sample() -> float:
    """Seconds of one run of the kernel, with the cyclic garbage collector
    off, so that objects the program keeps alive cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(2):
            _bareiss()
            _poly_square()
            _format_and_split()
            _fractions()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Yardstick:
    """Kernel samples taken every `PERIOD` seconds of wall time while the
    program runs, from a SIGALRM handler in the main thread, so that a
    slow phase during a long report is sampled as often as one during
    many short ones. `busy` is the time the handler took; the caller takes
    it off the reports' latencies."""

    PERIOD = 0.1

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy = 0.0
        self._next = self.PERIOD

    def __enter__(self) -> "Yardstick":
        signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def running(self):
        """Sample while the block runs. The timer keeps what was left of its
        period between blocks, so that reports shorter than a period are
        sampled too."""
        signal.setitimer(signal.ITIMER_REAL, self._next, self.PERIOD)
        try:
            yield
        finally:
            self._next = signal.setitimer(signal.ITIMER_REAL, 0)[0] or self.PERIOD

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(sample())
        self.busy += time.perf_counter() - t0

    def scale(self) -> float:
        """The factor that brings this run's times to the nominal speed. The
        mean, not the median: a slow phase slows the program by the share
        of the time it lasts, and the mean of the samples weighs it so."""
        return NOMINAL_S / statistics.fmean(self.samples)
