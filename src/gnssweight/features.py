"""Per-link signal features and the sliding C/N0 window tracker.

``TrackingHistory.update_and_extract`` gives an epoch's per-link block:
an (N, 6) array, one row per link in canonical order, with the columns
``PER_LINK_COLUMNS`` (elevation, lock time, C/N0, and the mean, variance
and length of the link's C/N0 window). ``featurize`` appends it to the
leave-one-out summaries as it is.

The tracker keeps one window of recent C/N0 values per link. A link keeps
its window when the tracker saw it in one of its last two epochs, so it
may miss one epoch; after a longer gap its window starts afresh. Gaps are
counted in the tracker's epochs, not in seconds, so the rule holds at
every data rate. Each epoch it groups the links' windows by length,
stacks each group into a (k, L) array and takes every window's mean, and
for L >= 2 its variance (ddof=1), by one ``mean`` and one ``var`` call
along the rows. That keeps each link's bits: numpy sums a contiguous row
pairwise, by a tree that depends only on the row's length (Higham, "The
accuracy of floating point summation", SIAM J. Sci. Comput. 14(4), 1993),
so a row of the stack is summed exactly as the window alone would be.
Padding the windows to one common length would change that tree.
"""

from __future__ import annotations

from collections import deque
from itertools import chain

import numpy as np

from .errors import NonMonotonicTime
from .geo import GeodeticPosition, elevation_angles
from .model import Epoch

WINDOW_CAPACITY = 10
# Variance reported for a single-entry window ("no history yet"), chosen
# far above any realistic C/N0 variance.
VARIANCE_SENTINEL = 1e4

PER_LINK_COLUMNS = ("elevation", "lock_time", "cn0", "cn0_mean", "cn0_var", "window_size")
N_PER_LINK_FEATURES = len(PER_LINK_COLUMNS)


class TrackingHistory:
    """Per-link ring buffers of recent C/N0 values.

    One instance per navigation session; epoch times must be
    nondecreasing across calls.
    """

    def __init__(self):
        self._windows: dict[tuple, deque] = {}
        self._seen: dict[tuple, int] = {}  # the index of each link's last epoch
        self._epochs = 0  # epochs tracked so far
        self._last_time: float | None = None

    def update_and_extract(self, epoch: Epoch, rx_approx: GeodeticPosition) -> np.ndarray:
        """Push the epoch's C/N0 values and return its (N, 6) per-link block
        (module docstring)."""
        t = epoch.time
        if self._last_time is not None and t < self._last_time:
            raise NonMonotonicTime(f"epoch time {t} precedes last seen {self._last_time}")
        self._last_time = t
        k = self._epochs = self._epochs + 1

        ms = epoch.measurements
        windows = []
        for key, m in zip(epoch.measurement_keys(), ms):
            win = self._windows.get(key)
            if win is None or k - self._seen[key] > 2:  # not in the last two epochs
                win = self._windows[key] = deque(maxlen=WINDOW_CAPACITY)
            self._seen[key] = k
            win.append(m.cn0)
            windows.append(win)

        sizes = [len(win) for win in windows]
        block = np.empty((len(ms), N_PER_LINK_FEATURES))
        block[:, 0] = elevation_angles(epoch.sat_array(), rx_approx)
        block[:, 1] = [m.lock_time for m in ms]
        block[:, 2] = [m.cn0 for m in ms]
        block[:, 4] = VARIANCE_SENTINEL
        block[:, 5] = sizes
        # the windows of each length as the rows of one stack (module docstring)
        for size in set(sizes):
            rows = [i for i, s in enumerate(sizes) if s == size]
            # one flat pass over the windows: np.array(windows) reads each
            # deque as a generic sequence, several times slower
            values = np.fromiter(chain.from_iterable(windows[i] for i in rows), float,
                                 len(rows) * size).reshape(-1, size)
            block[rows, 3] = values.mean(axis=1)
            if size >= 2:
                block[rows, 4] = values.var(axis=1, ddof=1)
        return block
