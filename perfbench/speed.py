"""Calibrated time: wall time corrected for how fast the machine runs now.

On a shared machine the same code can run 1.7 times slower for minutes at a
time (on a shared 2-CPU x86-64 virtual machine a fixed Python loop took
27-65 ms, and the two CPUs slowed down independently).  A probe thread times a fixed kernel, a mix of
scalar math and small numpy arrays like the program's per-node loops, every
``PERIOD_S`` on the same CPU as the workload.  A stretch of wall time is then
scaled by ``NOMINAL_KERNEL_S`` over the kernel's duration measured around it:
calibrated seconds are the seconds the work would take on a machine where the
kernel takes ``NOMINAL_KERNEL_S``.  The probe's own time is left out.

The kernel does not call elastica_fit, so a faster program gives smaller
calibrated times, while a slower machine does not.
"""

import bisect
import math
import os
import statistics
import threading
import time

import numpy as np

#: the kernel's duration when that virtual machine ran fast (Python 3.11,
#: numpy 2.4); it only sets the scale of calibrated seconds
NOMINAL_KERNEL_S = 250e-6

PERIOD_S = 0.05

#: probes on each side whose median gives the speed at one probe
SMOOTH = 2


def kernel():
    x = 0.0
    for i in range(100):
        a, b = 1.0, math.sqrt(1.0 - (i % 7) * 0.1)
        for _ in range(5):
            a, b = 0.5 * (a + b), math.sqrt(a * b)
        v = np.array([[a, b], [b, a], [x, 1.0]])
        x += float(v[0, 0] * v[1, 1]) * 1e-9
    return x


def pin_to_one_cpu():
    """Keep this process and the threads it starts on one CPU, so that the
    probe measures the CPU the workload runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def timed_kernel():
    t0 = time.perf_counter()
    kernel()
    return t0, time.perf_counter()


def kernel_speed():
    """The median kernel duration over five back-to-back runs."""
    return statistics.median(b - a for a, b in
                             (timed_kernel() for _ in range(5)))


class SpeedProbe:
    """Times the kernel every ``PERIOD_S`` on a background thread."""

    def __init__(self):
        self.probes = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(PERIOD_S):
            self.probes.append(timed_kernel())

    def __enter__(self):
        self.probes.append(timed_kernel())
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.probes.append(timed_kernel())
        self._finish()

    def _finish(self):
        self._starts = [s for s, _ in self.probes]
        dur = [e - s for s, e in self.probes]
        n = len(dur)
        self._speed = [
            statistics.median(dur[max(0, k - SMOOTH):k + SMOOTH + 1])
            for k in range(n)]

    def _gap_speed(self, g):
        """Kernel duration for the gap after probe g (-1: before the first)."""
        last = len(self._speed) - 1
        if g < 0 or g == last:
            return self._speed[max(g, 0)]
        return 0.5 * (self._speed[g] + self._speed[g + 1])

    def calibrated(self, a, b):
        """Calibrated length of the wall interval [a, b]; call after exit."""
        probes, n = self.probes, len(self.probes)
        total = 0.0
        g = bisect.bisect_right(self._starts, a) - 1
        while True:
            lo = probes[g][1] if g >= 0 else -math.inf
            hi = probes[g + 1][0] if g + 1 < n else math.inf
            if min(hi, b) > max(lo, a):
                total += (min(hi, b) - max(lo, a)) * NOMINAL_KERNEL_S \
                    / self._gap_speed(g)
            if hi >= b:
                return total
            g += 1
