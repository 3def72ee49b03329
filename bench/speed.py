"""Machine-speed probe for timing on a shared host.

On a host whose cores are shared with other tenants, the speed of one
thread drifts between states up to 1.9x apart, each lasting from a
second to more than a run. No estimator over one run's own timings can
undo a run spent wholly in a slow state, so every timed unit is paired
with the time of a fixed kernel that belongs to the benchmark: once just
before the unit, every PERIOD seconds during it (SIGALRM) and once just
after. The unit's time is then rescaled to the kernel's reference time
REFERENCE_S:

    scaled = (wall - time not charged) * REFERENCE_S / mean(kernel)

where the time not charged is the probe's own plus any stretch of the
benchmark's own work marked with `excluded`. The kernel never changes
with the program, so a program that does more or slower work still
reads slower. It uses numpy alone, which the program needs anyway, so
importing it adds nothing to the program's set-up.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

PERIOD = 0.25
# median kernel time on the reference host (2 shared cores, Python 3.11,
# numpy 2.4) over a 30-second calibration loop
REFERENCE_S = 0.0030

_A = np.linspace(0.1, 1.0, 16).reshape(4, 4)
_G = np.random.default_rng(0).integers(0, 2, (6, 12)).astype(np.int64)
_B = (np.arange(64)[:, None] >> np.arange(5, -1, -1)) & 1


def kernel() -> float:
    """Small log-sum-exp, GF(2) table and interpreter work, ~3 ms: the
    mix the program's solvers and trial loop spend their time on."""
    total = 0.0
    for i in range(50):
        a = _A * (i * 1e-3)
        top = a.max(axis=1)
        total += float((top + np.log(np.exp(a - top[:, None]).sum(axis=1))).sum())
        table = (_B @ _G) % 2
        total += int(np.bincount(table.sum(axis=1), minlength=13)[6])
        total += sum(j * j % 7 for j in range(600))
    return total


class SpeedProbe:
    """Times stretches of work together with kernel samples taken around
    and in them. `spent` is the time in the current stretch that is not
    charged to the program; the first stretch also holds the probe's
    warm-up."""

    def __init__(self):
        self.samples = []
        t0 = time.perf_counter()
        kernel()                      # first call pays one-off costs
        signal.signal(signal.SIGALRM, self._tick)
        self.spent = time.perf_counter() - t0

    def sample(self) -> float:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.sample()
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._first = len(self.samples)
        self._t0 = time.perf_counter()
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> tuple[float, list]:
        """(wall seconds since start less the time not charged, the kernel
        samples of the stretch including one taken after it)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        net = time.perf_counter() - self._t0 - self.spent
        self.sample()
        return net, self.samples[self._first:]

    @contextlib.contextmanager
    def excluded(self):
        """Leave the enclosed stretch out of the current stretch's net time."""
        t0, spent0 = time.perf_counter(), self.spent
        try:
            yield
        finally:
            # ticks inside already added to spent; count their time once
            self.spent = spent0 + (time.perf_counter() - t0)

    def measure(self, fn):
        """Run fn; return (its result, net seconds, mean kernel seconds)."""
        self.spent = 0.0
        self.start()
        try:
            out = fn()
        finally:
            net, samples = self.stop()
        return out, net, float(np.mean(samples))


def scaled(net: float, kernel_s: float) -> float:
    return net * REFERENCE_S / kernel_s
