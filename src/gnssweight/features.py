"""Per-link signal features and the sliding C/N0 window tracker.

The tracker keeps one window of recent C/N0 values per link. Each epoch
it groups the links' windows by length, stacks each group into a (k, L)
array and takes every window's mean, and for L >= 2 its variance
(ddof=1), in one reduction along the rows. That keeps each link's bits:
numpy sums a contiguous row pairwise, by a tree that depends only on the
row's length (Higham, "The accuracy of floating point summation", SIAM J.
Sci. Comput. 14(4), 1993), so a row of the stack is summed exactly as the
window alone would be. Padding the windows to one common length would
change that tree.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

import numpy as np

from .errors import NonMonotonicTime
from .geo import GeodeticPosition, look_angles
from .model import Epoch

WINDOW_CAPACITY = 10
# Variance reported for a single-entry window ("no history yet"), chosen
# far above any realistic C/N0 variance.
VARIANCE_SENTINEL = 1e4
# A link absent for longer than this loses its window (two nominal 5 Hz
# periods); the window semantics assume consecutive epochs.
CONTINUITY_HORIZON = 0.4

N_PER_LINK_FEATURES = 6


class PerLinkFeatures(NamedTuple):
    elevation: float
    lock_time: float
    cn0: float
    cn0_mean: float
    cn0_var: float
    window_size: int

    def as_array(self) -> np.ndarray:
        return np.array(self, dtype=float)


class TrackingHistory:
    """Per-link ring buffers of recent C/N0 values.

    One instance per navigation session; epoch times must be
    nondecreasing across calls.
    """

    def __init__(self):
        self._windows: dict[tuple, deque] = {}
        self._seen: dict[tuple, float] = {}  # each link's last epoch time
        self._last_time: float | None = None

    def update_and_extract(
        self, epoch: Epoch, rx_approx: GeodeticPosition
    ) -> list[PerLinkFeatures]:
        """Push the epoch's C/N0 values and return features in canonical order."""
        t = epoch.time
        if self._last_time is not None and t < self._last_time:
            raise NonMonotonicTime(f"epoch time {t} precedes last seen {self._last_time}")
        self._last_time = t

        elevations, _ = look_angles(epoch.sat_array(), rx_approx)
        windows = []
        for m in epoch.measurements:
            key = m.key
            win = self._windows.get(key)
            if win is None or t - self._seen[key] > CONTINUITY_HORIZON:
                win = self._windows[key] = deque(maxlen=WINDOW_CAPACITY)
            self._seen[key] = t
            win.append(m.cn0)
            windows.append(win)

        # the windows of each length as the rows of one stack (module docstring)
        sizes = [len(win) for win in windows]
        mean = np.empty(len(windows))
        var = np.full(len(windows), VARIANCE_SENTINEL)
        for size in set(sizes):
            rows = [i for i, s in enumerate(sizes) if s == size]
            values = np.array([windows[i] for i in rows])
            mean[rows] = values.mean(axis=1)
            if size >= 2:
                var[rows] = values.var(axis=1, ddof=1)
        return list(map(PerLinkFeatures._make, zip(
            elevations, [m.lock_time for m in epoch.measurements], [m.cn0 for m in epoch.measurements],
            mean.tolist(), var.tolist(), sizes,
        )))
