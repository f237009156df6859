"""The host's speed, sampled while the timed loop runs.

On a host of few vCPUs shared with other tenants, the CPU time of the same
serial work changes by up to 1.6x within minutes, and one vCPU's speed does
not follow the other's. So each sample is taken on the benchmark's own
thread, during the calls: a SIGALRM handler, run by the interpreter in the
main thread every ``INTERVAL_S`` of wall time, times a fixed pure-Python loop
in thread CPU time. A call's CPU time is then scaled by ``NOMINAL_S`` over
the median loop time of the samples around the call: the CPU time the call
would have taken had the host run the loop in ``NOMINAL_S``.

The handler's own CPU time is recorded with each sample, so it can be taken
out of the calls it interrupted.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.05
LOOP_LENGTH = 4000
# CPU time of the loop on the 2-vCPU host the baseline was measured on, at
# the fast end of its range; scaled times are in seconds at this speed.
NOMINAL_S = 4.0e-4
# A call shorter than the sampling interval takes the latest samples before
# its end, so every call is scaled by at least this many.
MIN_SAMPLES = 5


def _loop() -> int:
    total = 0
    for i in range(LOOP_LENGTH):
        total += i * i % 7
    return total


class SpeedProbe:
    """Samples the loop's time from ``start`` (or entering it as a context
    manager) until ``stop``."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter at each sample
        self.loop_s: list[float] = []  # thread CPU time of the loop
        self.handler_s: list[float] = []  # thread CPU time of the whole handler
        self._previous = None

    def _sample(self, signum, frame) -> None:
        began = time.thread_time()
        _loop()
        ended = time.thread_time()
        self.at.append(time.perf_counter())
        self.loop_s.append(ended - began)
        self.handler_s.append(time.thread_time() - began)

    def start(self) -> "SpeedProbe":
        """Start sampling; return once ``MIN_SAMPLES`` samples are in."""
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        while len(self.loop_s) < MIN_SAMPLES:
            time.sleep(INTERVAL_S)
        return self

    def stop(self) -> None:
        """Stop sampling; later calls do nothing."""
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def __enter__(self) -> "SpeedProbe":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _window(self, start: float, end: float) -> tuple[int, int]:
        first = bisect.bisect_left(self.at, start)
        last = bisect.bisect_right(self.at, end)
        return min(first, max(0, last - MIN_SAMPLES)), last

    def overhead_s(self, start: float, end: float) -> float:
        """Handler CPU time spent between ``start`` and ``end``."""
        return sum(self.handler_s[bisect.bisect_left(self.at, start):bisect.bisect_right(self.at, end)])

    def scaled_cpu_s(self, cpu_s: float, start: float, end: float) -> float:
        """CPU time ``cpu_s`` spent between ``start`` and ``end``, less the
        handler's, at nominal host speed."""
        return (cpu_s - self.overhead_s(start, end)) * self.scale(start, end)

    def scale(self, start: float, end: float) -> float:
        """``NOMINAL_S`` over the median loop time of the samples taken
        between ``start`` and ``end``, or of the latest ``MIN_SAMPLES``
        before ``end`` if that window holds fewer."""
        first, last = self._window(start, end)
        return NOMINAL_S / statistics.median(self.loop_s[first:last])

    def relative_speed(self) -> float:
        """Median host speed of the whole probe, 1.0 at ``NOMINAL_S``."""
        return NOMINAL_S / statistics.median(self.loop_s)
