"""Host-speed probe: a fixed small numpy and Python kernel, timed.

A shared host can run the same code up to 1.6 times slower for seconds at
a time while other tenants load its cores.  Timing this kernel next to the
work lets run.py express times at a reference host speed.  The kernel
works on its own arrays and touches no program state.
"""

import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.1


class SpeedProbe:
    """Times the kernel on demand, or every PROBE_INTERVAL_S from a
    SIGALRM handler while used as a context manager."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(16, 5, 5, 5, 5))
        self._b = rng.normal(size=(16, 5, 5))
        self.samples = []

    def kernel(self):
        s = float(np.einsum("xijkl,xia,xjb->xabkl", self._a, self._b,
                            self._b).sum())
        for i in range(3000):
            s += i * 1e-9
        return s

    def median_duration(self, repeats=20):
        """Median kernel time over back-to-back repeats."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self.kernel()
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
