"""The host's momentary speed, read from a fixed pure-Python loop.

The benchmark's host is a shared VM whose CPU speed drifts by a factor of
two over seconds and minutes, with CPU time equal to wall time throughout.
Every timed interval is therefore sampled with passes of the loop below,
and its duration is rescaled to the speed at which one pass takes
``REFERENCE_S``:

    reference-speed seconds = measured seconds * REFERENCE_S / pass time

where the pass time is the mean of the passes taken during the interval
and next to it.  A process under measurement takes a pass every
``Sampler.every_s`` seconds from a timer signal, so that a computation of
several seconds is sampled while it runs; the time of those passes is
taken out of the interval before it is rescaled.

The loop uses only the standard library (dicts keyed by tuples, ``Fraction``
arithmetic, small integers), the operations dyalg spends its time in, so
its speed follows the host's speed for dyalg's code and no change to dyalg
can move it.  Measured seconds are kept next to the rescaled ones in
every result file.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# one pass at the reference speed; about the median pass time on the
# 2-core Xeon VM the benchmark was defined on, so that reference-speed
# seconds read close to that host's typical seconds
REFERENCE_S = 0.0018


def _loop() -> Fraction:
    table: dict = {}
    acc = Fraction(0)
    for i in range(400):
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + i
        acc += Fraction(i % 5 + 1, i % 3 + 1)
    return acc


def pass_s(passes: int = 1) -> float:
    """Median time of ``passes`` passes of the loop.  The collector is off
    during a pass, so a pass never walks the caller's heap."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(passes):
            t0 = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def rescale(seconds: float, *pass_times: float) -> float:
    """``seconds`` at the reference speed, given the pass times around it."""
    return seconds * REFERENCE_S / statistics.fmean(pass_times)


class Sampler:
    """Passes taken every ``every_s`` seconds from a ``SIGALRM`` handler
    while started, and on demand with ``take``.  ``times`` holds the
    monotonic clock at the end of each pass, ``passes`` its pass time."""

    def __init__(self, every_s: float = 0.05):
        self.every_s = every_s
        self.times: list[float] = []
        self.passes: list[float] = []

    def take(self) -> None:
        pass_time = pass_s()
        self.times.append(time.monotonic())
        self.passes.append(pass_time)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.take())
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def during(self, t0: float, t1: float) -> list[float]:
        """Pass times of the passes that ended between t0 and t1."""
        return self.passes[bisect.bisect_right(self.times, t0):
                           bisect.bisect_right(self.times, t1)]

    def interval(self, t0: float, t1: float) -> tuple[float, float]:
        """The measured seconds from t0 to t1 less the passes taken in
        between, and the same at the reference speed, by the passes that
        ended within ``every_s`` of the interval (or the nearest one)."""
        seconds = t1 - t0 - sum(self.during(t0, t1))
        around = self.during(t0 - self.every_s, t1 + self.every_s)
        if not around:
            i = min(bisect.bisect_left(self.times, t0), len(self.times) - 1)
            around = [self.passes[i]]
        return seconds, rescale(seconds, *around)
