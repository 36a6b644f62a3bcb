"""The speed of a shared machine over a run, to turn wall time into
reference seconds.

On a small shared machine the wall time of the same job drifts by 10-20 %
between runs as other tenants load the host, which a 40-second run cannot
average away. So the benchmark times a fixed kernel, shaped like the
program's work but not the program's code, between jobs (at most every
SAMPLE_INTERVAL_S) and scales the run's times by NOMINAL_S over the
kernel's mean time in the run. Both sides of a comparison run the same
kernel, so a change to the program shows in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SAMPLE_INTERVAL_S = 0.5
SAMPLE_RUNS = 10
NOMINAL_S = 0.003  # the kernel's typical time on the 2-CPU VM the bounds were set on


def kernel():
    """Work shaped like the program's, but not the program's code: row and
    column updates on a small numpy array, as in a Jacobi sweep, then a
    greedy coloring with Python sets, as in DSATUR."""
    a = np.eye(24) + 0.01
    for p in range(23):
        for q in range(p + 1, 24):
            col = a[:, p].copy()
            a[:, p] = 0.8 * col - 0.6 * a[:, q]
            a[:, q] = 0.6 * col + 0.8 * a[:, q]
    n = 240
    neighbours = [{(v * 7 + k * 13) % n for k in range(1, 12)} - {v} for v in range(n)]
    colors = {}
    for v in range(n):
        used = {colors[u] for u in neighbours[v] if u in colors}
        colors[v] = next(c for c in range(n) if c not in used)
    return a, colors


class MachineSpeed:
    """Kernel timings taken between jobs, and the scaling they imply.

    A sample is the kernel's mean time over ten runs, and the run's speed
    is the mean of its samples: a mean follows the share of time the host
    takes away, where a minimum would only find the quietest moment.
    """

    def __init__(self):
        self.last = None  # when the last sample ended
        self.kernel_s = []  # the kernel's mean time at each sample

    def sample(self, force=False):
        """Time the kernel, unless the last sample is more recent than the interval."""
        if not force and self.last is not None and time.perf_counter() - self.last < SAMPLE_INTERVAL_S:
            return
        start = time.perf_counter()
        for _ in range(SAMPLE_RUNS):
            kernel()
        self.last = time.perf_counter()
        self.kernel_s.append((self.last - start) / SAMPLE_RUNS)

    def mean_kernel_s(self):
        return statistics.fmean(self.kernel_s)

    def scale(self):
        """Factor from wall seconds to reference seconds for this run."""
        return NOMINAL_S / self.mean_kernel_s()
