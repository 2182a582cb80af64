"""Machine-speed reference, so that times measured on a shared host can be
compared across periods of different host load.

On the shared 2-core VM the benchmark was written on, the speed of the
CPU itself changes by up to 2x in regimes lasting from seconds to
minutes (process CPU time moves with wall time, so it is not scheduling).
A timed run that falls into a slow regime reads slow for the program and
for any fixed piece of code, by an amount that depends on the kind of
work: exact Python arithmetic follows the regime, memory-bound numpy work
much less.  Sampler therefore runs reference(),
a fixed exact-arithmetic routine that never calls toriso, from a SIGALRM
handler every INTERVAL seconds of the timed work, in the same thread.
normalize() turns a measured interval into seconds at the reference
speed: the interval minus the handler's own time, divided by the slowdown
of its work.  The reference's slowdown is (median reference time sampled
inside the interval) / REF_SECONDS; a workload whose work only partly
runs at the reference's speed says which share does (normalize()).

A change to toriso moves the interval but not the reference, so the
normalized time follows the program; a change of host speed moves both.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

clock = time.perf_counter

INTERVAL = 0.05
# median reference() time on an idle core of the machine the benchmark
# was written on (Intel Xeon, 2 vCPUs, 2.0 GHz, Python 3.11); the
# normalized times read in seconds at that speed
REF_SECONDS = 1.1e-3
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(7)] for i in range(7)]


def det(a) -> Fraction:
    """Exact determinant by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in a]
    n, out = len(m), Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            m[k], m[p], out = m[p], m[k], -out
        out *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return out


def reference() -> Fraction:
    """The determinant of a fixed 7x7 rational matrix: allocation-heavy
    exact arithmetic of the kind toriso itself spends its time in."""
    return det(_MATRIX)


class Sampler:
    """Context manager that samples reference() every INTERVAL seconds."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def _tick(self, signum, frame) -> None:
        t0 = clock()
        reference()
        self.samples.append((t0, clock() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalize(self, start: float, end: float, share: float = 1.0) -> float:
        """Seconds the interval [start, end) would take at reference speed.

        share is the part of the interval's work that runs at the speed of
        reference(); the rest (memory-bound numpy work) is taken to keep
        its speed when the CPU speeds up or slows down."""
        inside = [s for s in self.samples if start <= s[0] < end]
        # an interval shorter than a few ticks borrows the latest samples
        speed = inside if len(inside) >= 3 else [s for s in self.samples if s[0] < end][-3:]
        if not speed:
            raise RuntimeError("no reference samples before the interval ended")
        busy = end - start - sum(d for _, d in inside)
        slowdown = statistics.median(d for _, d in speed) / REF_SECONDS
        return busy / (share * slowdown + 1 - share)
