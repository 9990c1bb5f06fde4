"""Timings at reference speed, on a host whose CPU speed drifts.

On a shared virtual machine the same single-threaded work can take 50 %
longer from one minute to the next while the process is never
descheduled (CPU time equals wall time), so raw wall times of one run
measure the neighbours as much as the solver.  A fixed calibration loop
of interpreter work and small NumPy calls, like the solver's inner
iterations, and using no code of the package, is timed before every
solve, after every pass, and every ``PERIOD_S`` from a timer signal
during long solves.  A timing is reported at reference speed: its raw
duration, less the calibration time spent inside it, times the mean
speed (``REFERENCE_S`` / calibration duration) of the samples taken
inside it and of the one just before and just after it.
"""

from __future__ import annotations

import contextlib
import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.1
# seconds one calibration loop takes at the reference speed: its typical
# duration between solver calls on a 2-vCPU x86-64 Linux VM with Python
# 3.11 and NumPy 2.4 (alone in a tight loop it takes about 0.6 ms there)
REFERENCE_S = 1.1e-3


class SpeedSampler:
    """Calibration samples as (end time, speed, seconds spent); the timer
    takes samples only inside ``sampling()``."""

    def __init__(self):
        self.samples = []
        self._vec = np.linspace(-1.0, 1.0, 96)

    def _calibration_loop(self) -> float:
        total = 0.0
        for _ in range(160):
            total += float(np.dot(self._vec, self._vec))
            total += float(np.abs(self._vec).max())
            for i in range(20):
                total += i * 0.5
        return total

    def sample(self, *_signal_args):
        start = perf_counter()
        self._calibration_loop()
        end = perf_counter()
        self.samples.append((end, REFERENCE_S / (end - start), end - start))

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def normalize(self, start: float, end: float) -> float:
        """Reference-speed seconds of [start, end], which a sample must
        follow; the last sample before ``start`` also counts."""
        before = [s for s in self.samples if s[0] <= start][-1:]
        inside = [s for s in self.samples if start < s[0] <= end]
        after = [s for s in self.samples if s[0] > end][:1]
        used = before + inside + after
        speed = sum(s[1] for s in used) / len(used)
        return (end - start - sum(s[2] for s in inside)) * speed
