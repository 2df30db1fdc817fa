import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from gnssweight.errors import NonMonotonicTime
from gnssweight.features import (
    N_PER_LINK_FEATURES,
    PER_LINK_COLUMNS,
    VARIANCE_SENTINEL,
    WINDOW_CAPACITY,
    TrackingHistory,
)
from gnssweight.geo import ecef_to_geodetic, elevation_angles
from gnssweight.model import ConstellationId, Epoch, PseudorangeMeasurement
from conftest import make_epoch, reference_elevation_azimuth

# column index of each per-link feature in the tracker's block
ELEVATION, LOCK_TIME, CN0, CN0_MEAN, CN0_VAR, WINDOW_SIZE = (
    PER_LINK_COLUMNS.index(name)
    for name in ("elevation", "lock_time", "cn0", "cn0_mean", "cn0_var", "window_size")
)


def _replay(rng, cn0_by_epoch, dt=0.2):
    """Feed one fixed link a scripted C/N0 sequence; return the per-link block per epoch."""
    epoch0, truth = make_epoch(rng, n=6, constellations=(ConstellationId.GPS,))
    ref = ecef_to_geodetic(truth.position)
    hist = TrackingHistory()
    outs = []
    for k, cn0s in enumerate(cn0_by_epoch):
        ms = []
        for m, cn0 in zip(epoch0.measurements, cn0s):
            ms.append(
                PseudorangeMeasurement(
                    constellation=m.constellation,
                    sv_id=m.sv_id,
                    band=m.band,
                    pseudorange=m.pseudorange,
                    sat_pos=m.sat_pos,
                    cn0=cn0,
                    lock_time=m.lock_time + k * dt,
                )
            )
        ep = Epoch(time=k * dt, measurements=ms)
        outs.append(hist.update_and_extract(ep, ref))
    return outs


def test_first_epoch_uses_variance_sentinel(rng):
    outs = _replay(rng, [[40.0] * 6])
    for f in outs[0]:
        assert f[WINDOW_SIZE] == 1
        assert f[CN0_MEAN] == 40.0
        assert f[CN0_VAR] == VARIANCE_SENTINEL


def test_window_statistics_match_numpy(rng):
    seq = [[40.0 + k + i for i in range(6)] for k in range(5)]
    outs = _replay(rng, seq)
    for i in range(6):
        vals = np.array([seq[k][i] for k in range(5)])
        f = outs[-1][i]
        assert f[WINDOW_SIZE] == 5
        assert f[CN0] == vals[-1]
        assert f[CN0_MEAN] == pytest.approx(vals.mean(), rel=1e-12)
        assert f[CN0_VAR] == pytest.approx(vals.var(ddof=1), rel=1e-12)


def test_window_three_sample_arithmetic(rng):
    outs = _replay(rng, [[40.0] * 6, [42.0] * 6, [44.0] * 6])
    f = outs[-1][0]
    assert f[WINDOW_SIZE] == 3
    assert f[CN0_MEAN] == pytest.approx(42.0)
    assert f[CN0_VAR] == pytest.approx(4.0)
    # constant window: variance exactly zero
    outs = _replay(rng, [[37.0] * 6] * 4)
    assert outs[-1][0, CN0_VAR] == 0.0


def test_window_capacity_evicts_oldest(rng):
    seq = [[float(k)] * 6 for k in range(WINDOW_CAPACITY + 5)]
    outs = _replay(rng, seq)
    f = outs[-1][0]
    assert f[WINDOW_SIZE] == WINDOW_CAPACITY
    kept = np.arange(5, WINDOW_CAPACITY + 5, dtype=float)
    assert f[CN0_MEAN] == pytest.approx(kept.mean(), rel=1e-12)


def test_gap_resets_window(rng):
    """A link keeps its window across one epoch of the tracker that misses
    it and loses it after two, however far apart the epochs are."""
    epoch0, truth = make_epoch(rng, n=6, constellations=(ConstellationId.GPS,))
    ref = ecef_to_geodetic(truth.position)
    hist = TrackingHistory()
    ms = epoch0.measurements
    seen = [ms, ms[3:], ms, ms[3:], ms[3:], ms]  # the first three links miss one epoch, then two
    sizes = [hist.update_and_extract(Epoch(time=10.0 * k, measurements=m), ref)[:, WINDOW_SIZE].tolist()
             for k, m in enumerate(seen)]
    assert sizes == [[1] * 6, [2] * 3, [2, 2, 2, 3, 3, 3], [4] * 3, [5] * 3, [1, 1, 1, 6, 6, 6]]


def test_links_are_isolated(rng):
    epoch0, truth = make_epoch(rng, n=6, constellations=(ConstellationId.GPS,))
    ref = ecef_to_geodetic(truth.position)
    hist = TrackingHistory()
    hist.update_and_extract(Epoch(time=0.0, measurements=epoch0.measurements), ref)
    # the next two epochs drop half the satellites; survivors keep their windows
    kept = epoch0.measurements[:3]
    for k in (1, 2):
        out = hist.update_and_extract(Epoch(time=0.2 * k, measurements=kept), ref)
        assert all(out[:, WINDOW_SIZE] == k + 1)
    # the dropped links return after missing two epochs and start fresh
    out = hist.update_and_extract(Epoch(time=0.6, measurements=epoch0.measurements), ref)
    assert out[:, WINDOW_SIZE].tolist() == [4, 4, 4, 1, 1, 1]


def test_non_monotonic_time_rejected(rng):
    epoch0, truth = make_epoch(rng, n=6, constellations=(ConstellationId.GPS,))
    ref = ecef_to_geodetic(truth.position)
    hist = TrackingHistory()
    hist.update_and_extract(Epoch(time=1.0, measurements=epoch0.measurements), ref)
    with pytest.raises(NonMonotonicTime):
        hist.update_and_extract(Epoch(time=0.5, measurements=epoch0.measurements), ref)


def test_elevation_matches_geometry(rng):
    epoch, truth = make_epoch(rng, n=8)
    ref = ecef_to_geodetic(truth.position)
    hist = TrackingHistory()
    out = hist.update_and_extract(epoch, ref)
    for f, m in zip(out, epoch.measurements):
        elev, _ = reference_elevation_azimuth(m.sat_pos, ref)
        assert f[ELEVATION] == elev
        assert math.radians(5) < f[ELEVATION] < math.pi / 2


def test_feature_vector_layout(rng):
    """The block's columns: elevation, lock time, C/N0, window mean,
    window variance and window size, one row per link in canonical order."""
    assert PER_LINK_COLUMNS == ("elevation", "lock_time", "cn0", "cn0_mean", "cn0_var", "window_size")
    epoch, truth = make_epoch(rng, n=3, constellations=(ConstellationId.GPS,))
    ref = ecef_to_geodetic(truth.position)
    hist = TrackingHistory()
    hist.update_and_extract(epoch, ref)
    ms = [replace(m, cn0=c, lock_time=12.0) for m, c in zip(epoch.measurements, (41.0, 43.0, 45.0))]
    block = hist.update_and_extract(Epoch(time=0.2, measurements=ms), ref)
    assert block.shape == (3, N_PER_LINK_FEATURES) and block.dtype == np.float64
    for m, f, elev in zip(epoch.measurements, block, elevation_angles(epoch.sat_array(), ref)):
        mean = (m.cn0 + f[CN0]) / 2.0
        var = (m.cn0 - mean) ** 2 + (f[CN0] - mean) ** 2
        assert np.array_equal(f, [elev, 12.0, f[CN0], mean, var, 2.0])
    assert block[:, CN0].tolist() == [41.0, 43.0, 45.0]


def test_random_replay_against_reference(rng):
    """Brute-force reference: recompute every window from the full history."""
    epoch0, truth = make_epoch(rng, n=5, constellations=(ConstellationId.GPS,))
    ref = ecef_to_geodetic(truth.position)
    hist = TrackingHistory()
    log = {m.key: [] for m in epoch0.measurements}
    t, tracked = 0.0, 0  # the time and the number of epochs the tracker has seen
    for k in range(40):
        t += rng.choice([0.2, 0.2, 0.2, 1.0])  # occasional dropouts
        present = [m for m in epoch0.measurements if rng.random() > 0.2]
        if not present:
            continue
        cn0s = {m.key: float(rng.uniform(20, 55)) for m in present}
        ms = [
            PseudorangeMeasurement(
                constellation=m.constellation,
                sv_id=m.sv_id,
                band=m.band,
                pseudorange=m.pseudorange,
                sat_pos=m.sat_pos,
                cn0=cn0s[m.key],
                lock_time=1.0,
            )
            for m in present
        ]
        ep = Epoch(time=t, measurements=ms)
        out = hist.update_and_extract(ep, ref)
        tracked += 1
        for m in ep.measurements:
            log[m.key].append((tracked, cn0s[m.key]))
        for f, m in zip(out, ep.measurements):
            # reference window: walk history backwards while no two of the
            # tracker's epochs in a row miss the link
            entries = log[m.key]
            win = [entries[-1]]
            for prev, cur in zip(reversed(entries[:-1]), reversed(entries)):
                if cur[0] - prev[0] > 2 or len(win) == WINDOW_CAPACITY:
                    break
                win.append(prev)
            vals = np.array([v for _, v in reversed(win)])  # oldest first, as the window holds them
            assert f[WINDOW_SIZE] == len(vals)
            assert f[CN0_MEAN] == vals.mean()
            if len(vals) >= 2:
                assert f[CN0_VAR] == vals.var(ddof=1)
            else:
                assert f[CN0_VAR] == VARIANCE_SENTINEL


# --- per-link reference -----------------------------------------------------
# The tracker as it was before it reduced the windows of each length as one
# stack and returned one array: every link's window becomes its own array,
# reduced on its own, and every link its own record. The package's block
# must keep its bits, column by column.


class _PerLinkReference:
    """``TrackingHistory`` with one array, mean and variance per link; each
    record is (elevation, lock time, C/N0, mean, variance, window size)."""

    def __init__(self):
        self._windows = {}  # each link's window of (epoch number, C/N0)
        self._epochs = 0

    def update_and_extract(self, epoch, rx_approx):
        elevations = [reference_elevation_azimuth(m.sat_pos, rx_approx)[0] for m in epoch.measurements]
        self._epochs += 1
        out = []
        for m, elev in zip(epoch.measurements, elevations):
            win = self._windows.setdefault(m.key, deque(maxlen=WINDOW_CAPACITY))
            if win and self._epochs - win[-1][0] > 2:  # missed by the last two epochs
                win.clear()
            win.append((self._epochs, m.cn0))
            values = np.array([v for _, v in win])
            var = float(values.var(ddof=1)) if len(values) >= 2 else VARIANCE_SENTINEL
            out.append((elev, m.lock_time, m.cn0, float(values.mean()), var, len(values)))
        return out


@pytest.mark.bitwise
@pytest.mark.parametrize("seed", range(4))
def test_window_statistics_match_per_link_reference(seed):
    """Random replays of 18 links with dropouts, some longer than the one
    epoch a window survives, so that windows of every length from 1 to
    WINDOW_CAPACITY occur, several lengths in one epoch: every column of the
    block has the bytes of the per-link reference's field, and every row
    the bytes of its record."""
    rng = np.random.default_rng(2000 + seed)
    consts = (ConstellationId.GPS, ConstellationId.GALILEO, ConstellationId.GLONASS)
    epoch0, truth = make_epoch(rng, n=18, constellations=consts)
    ref = ecef_to_geodetic(truth.position)
    hist, reference = TrackingHistory(), _PerLinkReference()
    sizes, most_lengths = set(), 0
    t = 0.0
    for _ in range(80):
        t += rng.choice([0.2, 0.2, 0.2, 0.2, 0.2, 0.6])
        ms = [replace(m, cn0=float(rng.uniform(20.0, 55.0)), lock_time=t)
              for m in epoch0.measurements if rng.random() > 0.15]
        epoch = Epoch(time=t, measurements=ms)
        got = hist.update_and_extract(epoch, ref)
        want = reference.update_and_extract(epoch, ref)
        assert got.shape == (len(want), N_PER_LINK_FEATURES) and got.dtype == np.float64
        for c, name in enumerate(PER_LINK_COLUMNS):
            assert got[:, c].tobytes() == np.array([w[c] for w in want], dtype=float).tobytes(), name
        # window sizes are whole numbers, each its reference record's int
        window_sizes = got[:, WINDOW_SIZE].tolist()
        assert all(s.is_integer() and int(s) == w[5] and type(w[5]) is int for s, w in zip(window_sizes, want))
        for g, w in zip(got, want):
            assert g[:5].tobytes() == np.array(w[:5]).tobytes()
            assert g.tobytes() == np.array(w, dtype=float).tobytes()
        lengths = set(window_sizes)
        sizes |= lengths
        most_lengths = max(most_lengths, len(lengths))
    assert sizes == set(range(1, WINDOW_CAPACITY + 1))
    assert most_lengths >= 3
