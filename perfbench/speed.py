"""Machine-speed normalisation of wall-clock times.

On the 2-vCPU Xeon (2.1 GHz) virtual machine this benchmark was built on,
whose cores other tenants share, each vCPU switches between a fast state
and one about half as fast, in stretches from tens of milliseconds to several
seconds, independently of the other vCPU.  With the program unchanged, the
median latency of a 20 s run moved by 13 to 40 % from run to run.

So a worker samples its own vCPU's speed while it works: an interval timer
interrupts the process every SAMPLE_EVERY_S, and the handler times a tiny
fixed interpreter-bound kernel.  A wall time t over an interval is then
reported as ``(t - h) * KERNEL_REF_S / k``, where h is the time spent in
the handler during the interval and k the mean kernel time of the samples
in it (widened to at least MIN_WINDOW_S): the time the work would take on
a machine that runs the kernel in KERNEL_REF_S.  A change to dampex moves
these times as it moves the wall times; the machine's state cancels.  The
raw wall times stay in the run record.

Never change the kernel, KERNEL_REF_S or SAMPLE_EVERY_S without measuring
the baseline again.
"""

from __future__ import annotations

import bisect
import signal
import time

KERNEL_REF_S = 0.00025   # nominal kernel time defining a "reference second"
SAMPLE_EVERY_S = 0.01    # interval between speed samples
MIN_WINDOW_S = 0.2       # shortest span of samples averaged for one interval
_KERNEL_ITERS = 500


def kernel() -> float:
    """Seconds taken by a fixed interpreter-bound loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(_KERNEL_ITERS):
        acc += len(repr(i * 1.000001)) + (i * i) % 7
    if acc < 0:                      # keep the loop's result alive
        raise AssertionError
    return time.perf_counter() - start


class Sampler:
    """Speed samples taken from SIGALRM while the process works."""

    def __init__(self):
        self.at = []         # middle of each sample, perf_counter seconds
        self.took = []       # kernel time of each sample
        self.spent = [0.0]   # handler time summed up to each sample

    def _handler(self, signum, frame):
        start = time.perf_counter()
        took = kernel()
        self.at.append(start + 0.5 * took)
        self.took.append(took)
        self.spent.append(self.spent[-1] + time.perf_counter() - start)

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def rescale(self, start, end) -> float:
        """Wall time from ``start`` to ``end`` at the reference speed."""
        inside_lo = bisect.bisect_left(self.at, start)
        inside_hi = bisect.bisect_right(self.at, end)
        handler = self.spent[inside_hi] - self.spent[inside_lo]
        pad = max(0.0, 0.5 * (MIN_WINDOW_S - (end - start)))
        lo = bisect.bisect_left(self.at, start - pad)
        hi = bisect.bisect_right(self.at, end + pad)
        window = sorted(self.took[lo:hi])
        if not window:
            raise RuntimeError("no speed sample near the interval")
        # drop the slowest tenth: kernels the operating system preempted
        window = window[:max(1, len(window) - len(window) // 10)]
        mean = sum(window) / len(window)
        return (end - start - handler) * KERNEL_REF_S / mean
