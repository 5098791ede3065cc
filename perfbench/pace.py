"""Host-speed calibration for the end-to-end timings.

On a shared host the speed of a core drifts by 20% and more within
seconds, as other tenants load its sibling threads and caches, and CPU
time drifts with it. A timing taken at one moment is then not comparable
with one taken a minute later. ``Pace`` samples a fixed calibration
kernel all through the timed operations, interrupting them every
``INTERVAL_S`` with a timer signal, and the worker scales every timing
by ``REF_S`` over the run's median kernel time: the end-to-end times are
*reference-speed* seconds, the time the operations would take on a core
that runs the kernel in ``REF_S``. The time spent in the kernel is taken
out of the operation that it interrupted.

The kernel is a fixed mix of the program's three kinds of work: dict
counting over tuple keys (co-occurrence, coherence, naming), a numpy
gather, log and scatter over arrays of several hundred kilobytes (EM),
and many numpy calls on tiny arrays (fold-in of one image). It is part of the benchmark, never of the program, so a change
to the program cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time

clock = time.perf_counter

INTERVAL_S = 0.1
# The kernel's median time on a quiet 2-vCPU x86-64 host (Python 3.11,
# numpy 2.4). It fixes only the scale of reference seconds.
REF_S = 0.003


class Pace:
    """Calibration samples; ``spent`` is the total time the kernel took."""

    def __init__(self):
        import numpy as np  # loaded by the program before any Pace exists

        self.np = np
        rng = np.random.default_rng(20180315)
        self.idx = rng.integers(0, 4096, size=100000, dtype=np.int32)
        self.weights = rng.random(4096) + 0.5
        self.small = rng.random((12, 8)) + 0.1
        self.pairs = [(int(a), int(b)) for a, b in
                      rng.integers(0, 90, size=(8000, 2))]
        self.samples: list[float] = []
        self.spent = 0.0

    def kernel(self) -> None:
        counts: dict = {}
        for pair in self.pairs:
            counts[pair] = counts.get(pair, 0) + 1
        np = self.np
        np.bincount(self.idx, weights=np.log(self.weights[self.idx]),
                    minlength=4096)
        theta = np.full(8, 0.125)
        for _ in range(120):
            q = self.small * theta[None, :]
            theta = (q / q.sum(axis=1)[:, None]).sum(axis=0)
            theta = theta / theta.sum()

    def probe(self, *_signal_args) -> None:
        t0 = clock()
        self.kernel()
        dt = clock() - t0
        self.samples.append(dt)
        self.spent += dt

    def probes(self, n: int) -> None:
        for _ in range(n):
            self.probe()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        """Reference seconds per second of wall time in this run."""
        return REF_S / statistics.median(self.samples)
