"""Host-speed calibration for the end-to-end timings.

On a shared machine the speed of the one core the benchmark runs on drifts
by tens of percent over tens of seconds, and the drift hits every Python
operation much alike.  A timer signal runs a fixed pure-Python kernel
(Fraction arithmetic, about a millisecond, like most of the workloads) every
INTERVAL seconds of the run, also in the middle of long operations, and
records how long it took.  A timed operation is then scaled by NOMINAL_S
over the mean kernel time over its span, so timings read as on a machine
where the kernel takes exactly NOMINAL_S.  The kernel is benchmark code and
never changes with the program under test.  The kernel's own time is
subtracted from the operation it interrupted.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.001
INTERVAL = 0.05
WINDOW = 0.25
MIN_SAMPLES = 20


def kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 240):
        total += Fraction(1, i) * Fraction(i + 1, i + 2)
    return total


class SpeedMeter:
    def __init__(self):
        self.times: list[float] = []  # start of each kernel run, ascending
        self.seconds: list[float] = []  # its duration
        self.busy = 0.0  # total kernel time so far

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            start = time.perf_counter()
            kernel()
            took = time.perf_counter() - start
            self.times.append(start)
            self.seconds.append(took)
            self.busy += took

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean kernel time in [start - WINDOW, end + WINDOW].

        Short operations take the MIN_SAMPLES samples nearest to them.

        An operation is slowed by the mean slowdown over its span, so the mean
        (without the top and bottom tenth, against a preempted sample) tracks
        it better than the median.
        """
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        window = sorted(self.seconds[lo:hi])
        cut = len(window) // 10
        return NOMINAL_S / statistics.mean(window[cut:len(window) - cut])
