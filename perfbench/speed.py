"""Times at a reference speed, on a machine whose speed drifts.

On a shared machine the throughput for Python code swings with other
tenants' load.  On the 2-core Xeon this benchmark was written on, the same
fixed work took 1.5-2x longer in slow stretches, which last from a second to
minutes, and CPU time swung with wall time.  Over ten 20-second runs, raw
times spread by a quarter to a third (quartile distance over median).

A Sampler therefore times a fixed piece of pure-Python work, `tick_work`,
from a SIGPROF handler every SAMPLE_EVERY_S of the process's CPU time.
`reference_time(t0, t1)` takes the ticks out of an interval and divides it by
the slowdown during it: the mean tick time over TICK_REF_S.  In one process
factoring the same polynomials for 60 s, this brought the spread of the
batch times from 0.285 to 0.048.  monodyn code never runs in a tick, so a
change to monodyn cannot move the reference.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

SAMPLE_EVERY_S = 0.1
# tick_work()'s time at the reference speed: about its median on that Xeon
TICK_REF_S = 0.0008


def tick_work() -> int:
    """About a millisecond of Fraction, big-int and dict arithmetic, a mix
    close to monodyn's own."""
    x, acc, big, table = Fraction(1, 3), 0, 3 ** 200, {}
    for i in range(1, 60):
        x = (x * 7 + Fraction(i, 11)) % 5
        acc += big * (i + 1) % 1000003
        table[i] = (acc, x)
    for i in range(1500):
        table[i & 127] = (i * i + acc) % 97
    return acc


class Sampler:
    """Ticks of tick_work(), timed, for as long as it is started."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        tick_work()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def _range(self, t0: float, t1: float) -> tuple[int, int]:
        return (bisect.bisect_left(self.starts, t0),
                bisect.bisect_left(self.starts, t1))

    def tick_time(self, t0: float, t1: float) -> float:
        """Time spent in ticks within [t0, t1)."""
        i, j = self._range(t0, t1)
        return sum(self.durations[i:j])

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean tick time over TICK_REF_S, from the ticks inside [t0, t1),
        or the nearest one on each side of a shorter interval."""
        i, j = self._range(t0, t1)
        near = self.durations[i:j] or self.durations[max(0, i - 1):i + 1]
        return sum(near) / len(near) / TICK_REF_S if near else 1.0

    def reference_time(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1) would have taken at the reference speed, without
        the ticks in it."""
        return (t1 - t0 - self.tick_time(t0, t1)) / self.slowdown(t0, t1)
