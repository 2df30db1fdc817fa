import math

import numpy as np
import pytest

from gnssweight.errors import NonConvergence, ZeroRange
from gnssweight.geo import (
    SPEED_OF_LIGHT,
    EcefPosition,
    GeodeticPosition,
    ecef_to_enu,
    enu_rotation,
    geodetic_to_ecef,
)
from gnssweight.model import Band, ConstellationId, Epoch, NavState, PseudorangeMeasurement
from gnssweight.solver import SolveReport, solve_wls


def observation_function(state: NavState, m: PseudorangeMeasurement) -> float:
    """Predicted pseudorange of one measurement: geometric range plus c times
    the clock bias of its constellation, a KeyError when ``state`` has none.
    The scalar reference for ``solver.predicted_pseudoranges``."""
    dx = state.position.x - m.sat_pos.x
    dy = state.position.y - m.sat_pos.y
    dz = state.position.z - m.sat_pos.z
    return math.sqrt(dx * dx + dy * dy + dz * dz) + SPEED_OF_LIGHT * state.clock_bias[m.constellation]


def residual(state: NavState, m: PseudorangeMeasurement) -> float:
    """Measured minus predicted pseudorange."""
    return m.pseudorange - observation_function(state, m)


def reference_fix(epoch: Epoch, active=None) -> SolveReport:
    """Cold-start equal-weight fix over the ``active`` measurements (all by
    default), as one ``solve_wls``.

    A NonConvergence report counts as the fix; NotEnoughMeasurements and
    SingularGeometry propagate. Every fix in the package is a
    ``solver.solve_batch`` row read by ``solver.row_report``, with the same
    bits and rule: each epoch's all-ones problem in ``residuals.solve_rows``,
    ``evaluation``'s fixes when no learned strategy runs and FDE's rounds.
    """
    w = np.ones(epoch.n) if active is None else np.asarray(active, dtype=float)
    try:
        return solve_wls(epoch, w)
    except NonConvergence as e:
        return e.report


def reference_elevation_azimuth(sat: EcefPosition, rx: GeodeticPosition) -> tuple[float, float]:
    """One satellite's look angles through ``ecef_to_enu``: the per-satellite
    body that ``geo.look_angles`` computes for a stack."""
    enu = ecef_to_enu(sat, rx)
    rng = math.sqrt(enu.east**2 + enu.north**2 + enu.up**2)
    if rng == 0.0:
        raise ZeroRange("satellite coincides with receiver")
    elevation = math.asin(max(-1.0, min(1.0, enu.up / rng)))
    azimuth = math.atan2(enu.east, enu.north) % (2.0 * math.pi)
    return elevation, azimuth


def make_epoch(
    rng,
    n=8,
    constellations=(ConstellationId.GPS, ConstellationId.GALILEO),
    noise_sigma=0.0,
    biases=None,
    time=0.0,
):
    """Synthetic epoch built directly from a known truth state.

    ``biases`` maps measurement index (canonical order is assigned after
    construction, so indices refer to generation order == sv order) to an
    additive pseudorange fault in meters. Returns (epoch, truth_state).
    """
    lat = math.radians(rng.uniform(-60, 60))
    lon = math.radians(rng.uniform(-180, 180))
    h = rng.uniform(0, 500)
    rx = geodetic_to_ecef(GeodeticPosition(lat, lon, h))
    rot = enu_rotation(GeodeticPosition(lat, lon, h))  # rows e, n, u

    clock = {c: rng.uniform(-1e-4, 1e-4) for c in constellations}
    truth_state = NavState(rx, dict(clock))

    measurements = []
    for i in range(n):
        const = constellations[i % len(constellations)]
        elev = math.radians(rng.uniform(10, 85))
        az = rng.uniform(0, 2 * math.pi)
        los_enu = np.array(
            [
                math.cos(elev) * math.sin(az),
                math.cos(elev) * math.cos(az),
                math.sin(elev),
            ]
        )
        los_ecef = rot.T @ los_enu
        sat = EcefPosition(*(rx.as_array() + 2.2e7 * los_ecef).tolist())
        # same arithmetic as the observation function, so noise-free
        # residuals at truth vanish to the last ulp
        dxyz = rx.as_array() - sat.as_array()
        rng_m = math.sqrt(dxyz[0] ** 2 + dxyz[1] ** 2 + dxyz[2] ** 2)
        pr = rng_m + SPEED_OF_LIGHT * clock[const]
        if noise_sigma > 0:
            pr += rng.normal(0, noise_sigma)
        if biases and i in biases:
            pr += biases[i]
        measurements.append(
            PseudorangeMeasurement(
                constellation=const,
                sv_id=i + 1,
                band=Band.L1,
                pseudorange=pr,
                sat_pos=sat,
                cn0=rng.uniform(35, 50),
                lock_time=rng.uniform(0, 60),
            )
        )
    epoch = Epoch(time=time, measurements=measurements, truth=rx)
    return epoch, truth_state


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def assert_same_fix(got, expect, where=None):
    """Two SolveReports (or Nones) with the same bits in every field."""
    if expect is None:
        assert got is None, where
        return
    assert got is not None, where
    a, b = got.state, expect.state
    assert a.position.as_array().tobytes() == b.position.as_array().tobytes(), where
    assert list(a.clock_bias) == list(b.clock_bias), where
    assert np.array(list(a.clock_bias.values())).tobytes() == np.array(list(b.clock_bias.values())).tobytes(), where
    assert (got.iterations, got.converged) == (expect.iterations, expect.converged), where
    assert np.float64(got.final_cost).tobytes() == np.float64(expect.final_cost).tobytes(), where
    assert got.x.tobytes() == expect.x.tobytes(), where
