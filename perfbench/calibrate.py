"""Machine-speed probe: a fixed kernel timed all through the measured run.

The benchmark host is a shared virtual machine whose speed drifts by tens
of percent in phases of seconds to minutes. SpeedProbe times this kernel
every EVERY_S seconds of wall time, from a SIGALRM handler, so that the
samples also fall inside long operations. run.py subtracts the sampling
time from each operation and divides the drift out: an operation's time
is reported at the speed the kernel had on the reference machine,

    op_s = (wall - sampling inside it) * CAL_REF_S / (mean kernel time
           of the samples inside it and the nearest one either side)

The kernel imports nothing from the package, so a change to the package
does not move it. It mixes what an Ewald solve spends its time on: a
Python-level loop over short complex arrays, exp/erfc/wofz, small
matrix-vector products and a 6x6 complex eigenvalue problem.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.special import erfc, wofz

# Median kernel time on the reference machine (2-vCPU Xeon VM at 2.1 GHz,
# Python 3.11, numpy 2.4, scipy 1.17, one BLAS thread). It only scales the
# reported times; comparisons between runs do not depend on it.
CAL_REF_S = 0.003
REPS = 3  # kernel timings per sample; the sample is their median
EVERY_S = 0.25  # wall time between samples

_rng = np.random.default_rng(20220323)
_Z = 0.5 * (_rng.normal(size=48) + 1j * _rng.normal(size=48))
_R = _rng.normal(size=(48, 2))
_M = _rng.normal(size=(6, 6)) + 1j * _rng.normal(size=(6, 6))


def kernel() -> complex:
    acc = 0j
    for i in range(32):
        z = _Z * (1.0 + 1e-3 * i)
        g = np.exp(-(z.real ** 2)) * erfc(z) + wofz(z)
        phase = np.exp(1j * (_R @ np.array([0.3, 0.1 * i])))
        acc += (g * phase).sum()
        acc += np.linalg.eigvals(np.outer(g[:6], phase[:6]) + _M).sum()
    return acc


def sample() -> float:
    """Kernel time now: the median of REPS timings, in seconds."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def warm_up() -> None:
    for _ in range(10):
        kernel()


class SpeedProbe:
    """Kernel samples taken on a wall-clock timer while the probe runs."""

    def __init__(self):
        self.samples = []  # (start, end, kernel seconds)
        self._busy = False

    def sample_now(self) -> None:
        if self._busy:  # an alarm that arrives during a sample is dropped
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            k = sample()
            self.samples.append((t0, time.perf_counter(), k))
        finally:
            self._busy = False

    def _on_alarm(self, _signum, _frame) -> None:
        self.sample_now()

    def start(self) -> None:
        self.sample_now()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample_now()

    def paused(self, t0: float, t1: float) -> float:
        """Sampling time that fell inside [t0, t1]."""
        return sum(max(0.0, min(e, t1) - max(s, t0))
                   for s, e, _k in self.samples)

    def speed(self, t0: float, t1: float) -> float:
        """Reference kernel time over the kernel time seen during [t0, t1].

        Uses the samples inside the interval and the nearest one before and
        after it (start() and stop() take one, so both exist).
        """
        before = [k for _s, e, k in self.samples if e <= t0][-1:]
        inside = [k for s, e, k in self.samples if s > t0 and e < t1]
        after = [k for s, _e, k in self.samples if s >= t1][:1]
        ks = before + inside + after
        return CAL_REF_S * len(ks) / sum(ks)
