"""Host-speed sampling, so timings can be scaled to a nominal host speed.

The benchmark shares a machine with other tenants. On a two-core host, a
fixed loop of Python and small LAPACK calls took 28 to 50 ms to run,
shifting every few seconds, and runs of one seed differed by a third in
fix latency. While a run measures, ``HostSpeed`` runs a fixed reference
kernel from a SIGALRM handler every ``INTERVAL_S``. Each timed interval
is then scaled by ``REF_NOMINAL_S`` over the mean reference time around
it. Each sample runs the kernel twice and times the second run, so what
the interrupted code left in the caches does not move the reference. A
change to gnssweight therefore shows in full, while drift in the host's
speed moves both and cancels. The handler's own time is taken out of
every interval. Raw times are kept in the results file.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.05
# A typical reference time during runs on a 2-vCPU x86-64 VM (Python
# 3.11, numpy 2.4, one BLAS thread). It only sets the scale of scaled
# times.
REF_NOMINAL_S = 3.0e-4
# Phases of host speed last seconds: average the samples this far around
# an interval, so even a 0.1 s interval sees several.
MARGIN_S = 0.25

_SAT = np.random.default_rng(1).normal(size=(12, 3)) * 2e7


def reference() -> float:
    """Seconds for six damped Gauss-Newton steps on a fixed 12 x 4 problem.

    It is written like the workloads' hot loops, element by element over
    small numpy arrays, with one small LAPACK solve per step. It shares no
    code with gnssweight, so no change there can move it.
    """
    t0 = time.perf_counter()
    x = np.array([6.4e6, 1e5, 1e5, 0.0])
    H = np.empty((12, 4))
    r = np.empty(12)
    for _ in range(6):
        for i in range(12):
            dx = x[0] - _SAT[i, 0]
            dy = x[1] - _SAT[i, 1]
            dz = x[2] - _SAT[i, 2]
            rng = math.sqrt(dx * dx + dy * dy + dz * dz)
            r[i] = 2e7 - rng - x[3]
            H[i, 0] = dx / rng
            H[i, 1] = dy / rng
            H[i, 2] = dz / rng
            H[i, 3] = 1.0
        x = x + 1e-9 * np.linalg.solve(H.T @ H + np.eye(4), H.T @ r)
    return time.perf_counter() - t0


class HostSpeed:
    """Context manager sampling ``reference()`` from a timer signal."""

    def __init__(self):
        self.starts: list = []
        self.refs: list = []
        self.costs: list = []  # whole handler time, warm-up included
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        # A first run warms the caches, so the timed second run measures the
        # host and not how much of the cache the interrupted code evicted.
        reference()
        self.refs.append(reference())
        self.starts.append(start)
        self.costs.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds in [t0, t1], handler time removed, at nominal host speed."""
        starts = np.asarray(self.starts)
        refs = np.asarray(self.refs)
        inside = (starts >= t0) & (starts < t1)
        raw = (t1 - t0) - float(np.asarray(self.costs)[inside].sum())
        near = (starts >= t0 - MARGIN_S) & (starts < t1 + MARGIN_S)
        if not near.any():  # no sample close by: use the nearest one
            near = np.abs(starts - 0.5 * (t0 + t1)) == np.min(np.abs(starts - 0.5 * (t0 + t1)))
        ref = np.sort(refs[near])
        # the slowest tenth are samples a context switch or interrupt cut into
        return raw * REF_NOMINAL_S / float(ref[: max(1, int(0.9 * ref.size))].mean())
