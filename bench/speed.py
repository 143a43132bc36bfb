"""The machine's speed, gauged by a fixed reference kernel.

The benchmark runs on a shared host whose speed drifts by 20-40 % over tens
of seconds: a pure-Python loop, numpy FFTs and every workload slow down and
speed up together, with CPU time tracking wall time.  Wall-time medians of
30-second runs of the same code therefore spread by about 0.2 of their
median from run to run.  The reference kernel below touches no phasespin
code.  A run times it about four times a second, between operations and
outside every timed region, and scales every time it reports by
``K_REF_S / k``, where ``k`` is the kernel's median time over the run.  The
result is a time in reference seconds: seconds on a machine that runs the
kernel in ``K_REF_S``.  A change to phasespin moves it in full; a drift in
the host's speed moves the kernel too and largely cancels.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# the kernel's median time on the two-core machine the benchmark was defined
# on when that host ran fast (5.4-7.3 ms in slower phases); it fixes the
# unit only, so comparisons between runs do not depend on it
K_REF_S = 0.005

_MATRIX = np.random.default_rng(0).normal(size=(128, 128)) + 0j


def reference_kernel() -> None:
    """Fixed work of both kinds the workloads do, in about equal parts of
    time: a pure-Python integer loop, and numpy FFTs and matmuls of a
    128 x 128 complex matrix.  (On the host above a pure-Python loop tracked
    the drift of scatter-profile and packet-evolution best, and FFTs and
    matmuls that of weyl-star's ``wigner_on_grid``.)"""
    s = 0
    for i in range(40000):
        s += i * i
    for _ in range(4):
        np.fft.fft2(_MATRIX)
        _MATRIX @ _MATRIX


class Gauge:
    """Times of the reference kernel, taken at most every ``interval_s``."""

    def __init__(self, interval_s: float = 0.25):
        self.interval_s = interval_s
        self.samples = []
        self._last = -math.inf

    def sample(self, force: bool = False) -> float:
        """Time the kernel if ``interval_s`` has passed since the last
        sample (or if forced); return the wall time this took."""
        started = time.perf_counter()
        if not force and started - self._last < self.interval_s:
            return 0.0
        # bring the matrix back into cache, so the sample times the machine
        # and not what the preceding operation left in the cache
        np.fft.fft2(_MATRIX)
        kernel_start = time.perf_counter()
        reference_kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - kernel_start)
        return self._last - started

    def factor(self) -> float:
        """Reference seconds per wall second over the samples so far."""
        return K_REF_S / statistics.median(self.samples)
