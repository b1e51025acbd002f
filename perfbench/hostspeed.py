"""Host-speed calibration: a fixed numpy kernel timed next to every unit.

The benchmark's host is shared.  Its speed drifts by 20% and more within a
few minutes, and CPU time drifts with wall time, so raw times of the same
code spread past any useful bound from one run to the next.  The kernel
below does the same kind of work as fvstream (whole-plane numpy passes over
128x128 samples) and never calls into fvstream, so a change to the program
cannot move it.  HostClock times a piece of work while a timer signal runs
the kernel every INTERVAL_S seconds, subtracts the time the kernel took, and
scales the rest by REF_PASS_S over the mean kernel time, before, during and
after the work.  That is the work's time on a host where one pass takes
REF_PASS_S.  Sampling during the work, not only around it, is what makes
this hold for 20-second units, across which the host's speed changes.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: seconds of one kernel pass on a quiet 2-vCPU Intel Xeon VM (the reference)
REF_PASS_S = 0.004
PASSES = 5     # one calibration is the median of this many passes
INTERVAL_S = 0.5   # seconds between calibrations during timed work

_PLANES = np.random.default_rng(0).integers(0, 256, (4, 128, 128)).astype(
    np.float64)


def _kernel_pass() -> float:
    total = 0.0
    for plane in _PLANES:
        for shift in range(6):
            moved = np.roll(plane, shift, axis=1)
            diff = np.where(moved > plane, moved - plane, plane - moved)
            total += float((diff * diff).mean())
            total += float(np.clip(plane + moved, 0, 255).sum())
    return total


def calibrate() -> float:
    """Median seconds of one kernel pass, right now."""
    times = []
    for _ in range(PASSES):
        start = time.perf_counter()
        _kernel_pass()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostClock:
    """Times pieces of work at the reference host speed."""

    def __init__(self) -> None:
        calibrate()   # first-call costs of a fresh process
        self.calibrations: list[float] = []
        self.raw = 0.0
        self.scaled: float | None = None
        self._during: list[float] = []
        self._stolen = 0.0

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self._during.append(calibrate())
        self._stolen += time.perf_counter() - start

    def time(self, fn, sample: bool = True):
        """Run fn() and return what it returns.

        Afterwards, also when fn raises, `raw` holds its seconds less the
        calibrations taken during it, and `scaled` holds those seconds at the
        reference host speed.  With sample=False fn runs undisturbed, and
        `scaled` is None.
        """
        self._during, self._stolen, self.scaled = [], 0.0, None
        if sample:
            self._during.append(calibrate())
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.siginterrupt(signal.SIGALRM, False)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - start
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            self.raw = elapsed - self._stolen
            if sample:
                self._during.append(calibrate())
                self.calibrations.extend(self._during)
                self.scaled = (self.raw * REF_PASS_S
                               / statistics.fmean(self._during))
