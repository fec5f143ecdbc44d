"""A fixed reference computation that measures how fast the host runs right now.

The benchmark runs on a shared machine whose speed drifts by 10-40% over
tens of seconds, as neighbours load the host.  Every warm op is bracketed by
batches of this reference, and the op's time is reported relative to the
reference time around it, so that drift common to both cancels out.

The reference uses only numpy, never ``flaglets``, so a change to the
library moves the op time and leaves the reference alone.  It mixes the
three kinds of work the workloads do: a matrix-vector product streaming a
16 MB matrix from memory (the per-shell Legendre projections), FFTs along
rows (the longitude transforms), and a short-vector recurrence driven from
Python (the Legendre table builds and the per-call overhead).  The memory
stream takes about two thirds of a pass: on a 2-core VM the op times of all
three workloads followed the speed of that part more closely than the
others, as neighbours compete for memory bandwidth.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((1024, 2048))
        self.vectors = rng.standard_normal((2048, 2))
        self.rows = rng.standard_normal((64, 1024))
        self.xs = rng.uniform(-1.0, 1.0, 512)
        self.run()  # first touch of the buffers and FFT plans

    def run(self) -> float:
        """One pass of the reference work; returns a checksum so nothing is skipped."""
        total = 0.0
        for _ in range(10):
            total += float((self.matrix @ self.vectors)[0, 0])
        for _ in range(10):
            spectrum = np.fft.rfft(self.rows, axis=1)
            total += float(np.fft.irfft(spectrum, n=1024, axis=1)[0, 0])
        prev, cur = self.xs.copy(), 0.5 * self.xs
        for _ in range(750):
            prev, cur = cur, 0.6 * (self.xs * cur - 0.5 * prev)
        return total + float(cur[0])

    def time_batch(self, at_least_s: float) -> float:
        """Run whole passes until `at_least_s` has elapsed; returns the median pass time."""
        times = []
        start = perf_counter()
        while True:
            t0 = perf_counter()
            self.run()
            t1 = perf_counter()
            times.append(t1 - t0)
            if t1 - start >= at_least_s:
                return statistics.median(times)
