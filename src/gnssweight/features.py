"""Per-link signal features and the sliding C/N0 window tracker."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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


@dataclass(frozen=True)
class PerLinkFeatures:
    elevation: float
    lock_time: float
    cn0: float
    cn0_mean: float
    cn0_var: float
    window_size: int

    def as_array(self) -> np.ndarray:
        return np.array(
            [
                self.elevation,
                self.lock_time,
                self.cn0,
                self.cn0_mean,
                self.cn0_var,
                float(self.window_size),
            ]
        )


class TrackingHistory:
    """Per-link ring buffers of recent C/N0 values.

    One instance per navigation session; epoch times must be
    nondecreasing across calls.
    """

    def __init__(self):
        self._windows: dict[tuple, deque] = {}
        self._last_time: float | None = None

    def update_and_extract(
        self, epoch: Epoch, rx_approx: GeodeticPosition
    ) -> list[PerLinkFeatures]:
        """Push the epoch's C/N0 values and return features in canonical order."""
        if self._last_time is not None and epoch.time < self._last_time:
            raise NonMonotonicTime(
                f"epoch time {epoch.time} precedes last seen {self._last_time}"
            )
        self._last_time = epoch.time

        elevations, _ = look_angles(epoch.sat_array(), rx_approx)
        out = []
        for m, elev in zip(epoch.measurements, elevations):
            win = self._windows.get(m.key)
            if win is None:
                win = deque(maxlen=WINDOW_CAPACITY)
                self._windows[m.key] = win
            if win and epoch.time - win[-1][0] > CONTINUITY_HORIZON:
                win.clear()
            win.append((epoch.time, m.cn0))

            values = np.array([v for _, v in win])
            size = len(values)
            mean = float(values.mean())
            if size >= 2:
                var = float(values.var(ddof=1))
            else:
                var = VARIANCE_SENTINEL
            out.append(
                PerLinkFeatures(
                    elevation=elev,
                    lock_time=m.lock_time,
                    cn0=m.cn0,
                    cn0_mean=mean,
                    cn0_var=var,
                    window_size=size,
                )
            )
        return out
