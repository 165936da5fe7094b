"""Machine-speed reference, for timing on a machine shared with other tenants.

Other tenants of a shared machine slow this process by up to 2x, in
regimes that last from a fraction of a second to minutes, and CPU time
inflates with wall time.  A fixed pure-Python kernel, sampled between
operations, slows by the same factor: over 0.25 s windows the ratio of
idak's k=16 work to the kernel held within 3%, and k=128 big-int work
within 6%, while raw times moved by 1.7x.  `SpeedMeter` samples the kernel
and scales an operation's time by NOMINAL_S over the kernel time measured
around it, giving the time the operation takes at the kernel's nominal
speed.  Samples taken inside an operation (amplify-k16 samples at its
oracle calls) are added to `spent`, and the loop leaves them out of the
operation's time.

The kernel shares no code with idak, so a change to the package cannot
move it.  It touches under 100 KiB, so it does not measure cache effects
an operation leaves behind.
"""

from __future__ import annotations

import bisect
import statistics
import time

# Kernel time on an idle 2-core Xeon, about its 10th percentile over 3000
# runs; the scale of every normalised time.
NOMINAL_S = 140e-6
# Sample the kernel before an operation when this long has passed since
# the last sample, which keeps its cost near 2% of a run.
EVERY_S = 0.02


def kernel():
    acc, modulus = 1, (1 << 61) - 1
    items = []
    for i in range(500):
        acc = (acc * 6364136223846793005 + i) % modulus
        items.append((acc, i))
    return items


class SpeedMeter:
    """Kernel samples over time; `scale()` turns a wall time into a nominal one."""

    def __init__(self):
        self.times = []
        self.kernel_s = []
        self.spent = 0.0  # wall time spent sampling

    def sample(self):
        begin = time.perf_counter()
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        self.times.append(time.perf_counter())
        self.kernel_s.append(best)
        self.spent += time.perf_counter() - begin

    def sample_if_due(self):
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def scale(self, start, end):
        """NOMINAL_S over the mean kernel time of the samples bracketing [start, end]."""
        first = max(0, bisect.bisect_right(self.times, start) - 1)
        last = min(len(self.times) - 1, bisect.bisect_left(self.times, end))
        return NOMINAL_S / statistics.fmean(self.kernel_s[first:last + 1])
