"""Host-speed clock: times work in seconds of a reference host.

The benchmark's host is a shared virtual machine whose speed drifts by 10 to
40% from second to second and minute to minute, with the process's CPU time
rising as much as its wall time (see METRICS.md).  A timing taken there says
as much about the neighbours as about the program.  This clock measures the
drift and takes it out.

While it runs, an interval timer interrupts the benchmark every INTERVAL_S
seconds, and the signal handler times probe(), a fixed piece of pure-Python
work, in the benchmark's own thread.  A probe's speed is REFERENCE_PROBE_S
over its duration: 1 on the reference host, 0.8 when the host runs 20% slow.
An interval of work, from one mark() to another, then reads

    scaled = (wall time - time spent in probes) * mean speed of its probes

that is, the seconds the same work would take on the reference host.  The
probes of an interval are those it spans and those within WINDOW_S of its
ends, which smooths the probes' own jitter for short intervals.  Scaled
times are what the benchmark reports; the raw wall times go to its summary
line.

Signal handlers run in the main thread between bytecodes, so probes never
overlap the library's code, and the library stays single-threaded.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

INTERVAL_S = 0.02
# An interval's speed is the mean over its probes and those within WINDOW_S
# of either end, so even a short cell's speed rests on about ten probes.
WINDOW_S = 0.1
PROBE_ROUNDS = 1500
# The probe's duration on the reference host: about its median on the 2-vCPU
# Intel Xeon VM the baseline in METRICS.md comes from.
REFERENCE_PROBE_S = 0.0005


def probe():
    """Dict, tuple and integer work, like the library's inner loops."""
    table = {}
    for i in range(PROBE_ROUNDS):
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + i * i
    return len(table)


class HostClock:
    """Use as a context manager; mark() and scaled() work inside and after it."""

    def __init__(self):
        self.times = []    # start of each probe
        self.speeds = []   # REFERENCE_PROBE_S / duration of each probe
        self.spent = 0.0   # seconds spent in probes so far
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = perf_counter()
        probe()
        duration = perf_counter() - start
        self.times.append(start)
        self.speeds.append(REFERENCE_PROBE_S / duration)
        self.spent += duration

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def mark(self):
        """(wall time, probe time spent) at one instant."""
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:  # no probe ran between the two reads
                return now, spent

    def speed(self, start, end):
        """Mean probe speed over the wall-time interval [start, end], widened
        by WINDOW_S on either side."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        window = self.speeds[lo:hi] or self.speeds[max(lo - 1, 0):lo + 1]
        return sum(window) / len(window)

    def raw(self, begin, end):
        """Wall seconds between two marks, probes left out."""
        return (end[0] - begin[0]) - (end[1] - begin[1])

    def scaled(self, begin, end):
        """Reference-host seconds of the work between two marks."""
        return self.raw(begin, end) * self.speed(begin[0], end[0])
