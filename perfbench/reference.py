"""A fixed reference kernel, timed between passes to gauge the host's speed.

The host this benchmark runs on is shared: the same pass of the same code
takes up to 30 % longer or shorter from one run to the next, as load from
other machines on the processor and memory comes and goes, and every op of
a run slows or speeds up together.  The kernel does the kinds of work the
passes do (an interpreter loop, numpy on data in cache, a sort and a pass
over 16 MB) and never changes, so its time in the same run tracks the
host's speed during that run.  ``run.py`` multiplies the pass time by
``NOMINAL_S`` over the kernel's median time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Scaled timings are seconds on a host where the kernel takes this long
# (about its median on the 2-vCPU Intel Xeon VM the baseline was taken on).
NOMINAL_S = 0.045
# Share of each pass's wall time spent on the kernel after it.
SHARE = 0.1


class Reference:
    """Times the kernel and keeps every sample of one run.

    The kernel works in place on arrays allocated here, so timing it
    allocates nothing: it leaves the allocator's heap and thresholds, which
    the program under test shares, as the program left them.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20180610)
        self.small = rng.random(100_000)
        self.large = rng.random(2_000_000)
        self.small_work = np.empty_like(self.small)
        self.large_work = np.empty_like(self.large)
        self.samples: list[float] = []

    def kernel(self) -> None:
        total = 0
        for i in range(60_000):
            total += i * i % 7
        for _ in range(4):
            self.small_work[:] = self.small
            self.small_work.sort()
            np.cumsum(self.small_work, out=self.small_work)
        self.large_work[:] = self.large
        self.large_work.sort()
        np.multiply(self.large_work, 1.0001, out=self.large_work)
        self.large_work.sum()

    def run_for(self, seconds: float) -> None:
        """Run the kernel at least once and until ``seconds`` have passed."""
        end = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            self.kernel()
            now = time.perf_counter()
            self.samples.append(now - start)
            if now >= end:
                break

    def scale(self) -> float:
        """Factor that turns this run's wall seconds into scaled seconds."""
        return NOMINAL_S / statistics.median(self.samples)
