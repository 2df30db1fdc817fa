import math

import numpy as np
import pytest

from conftest import reference_elevation_azimuth
from gnssweight.errors import NearGeocenter, ZeroRange
from gnssweight.geo import (
    WGS84_B,
    EcefPosition,
    GeodeticPosition,
    ecef_to_enu,
    ecef_to_geodetic,
    elevation_angles,
    enu_rotation,
    geodetic_to_ecef,
)


def test_equator_prime_meridian():
    p = geodetic_to_ecef(GeodeticPosition(0.0, 0.0, 0.0))
    assert p.x == pytest.approx(6378137.0, abs=1e-9)
    assert p.y == pytest.approx(0.0, abs=1e-9)
    assert p.z == pytest.approx(0.0, abs=1e-9)


def test_north_pole():
    p = geodetic_to_ecef(GeodeticPosition(math.pi / 2, 0.0, 0.0))
    assert p.z == pytest.approx(WGS84_B, abs=1e-3)
    assert abs(p.x) < 1e-9
    assert WGS84_B == pytest.approx(6356752.314, abs=1e-3)


def test_inverse_trivials():
    g = ecef_to_geodetic(EcefPosition(6378137.0, 0.0, 0.0))
    assert g.latitude == pytest.approx(0.0, abs=1e-12)
    assert g.longitude == pytest.approx(0.0, abs=1e-12)
    assert g.height == pytest.approx(0.0, abs=1e-6)

    g = ecef_to_geodetic(EcefPosition(0.0, 6378137.0, 0.0))
    assert g.latitude == pytest.approx(0.0, abs=1e-12)
    assert g.longitude == pytest.approx(math.pi / 2, abs=1e-12)
    assert g.height == pytest.approx(0.0, abs=1e-6)


def test_round_trip_random_points():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10_000):
        g = GeodeticPosition(
            rng.uniform(-math.pi / 2, math.pi / 2),
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-100.0, 20_200_000.0),
        )
        p = geodetic_to_ecef(g)
        g2 = ecef_to_geodetic(p)
        p2 = geodetic_to_ecef(g2)
        worst = max(worst, float(np.linalg.norm(p.as_array() - p2.as_array())))
        assert abs(g2.height - g.height) < 1e-4
    assert worst < 1e-4


def test_near_geocenter_rejected():
    with pytest.raises(NearGeocenter):
        ecef_to_geodetic(EcefPosition(1e4, 0.0, 0.0))


def test_enu_trivials():
    ref = GeodeticPosition(math.radians(45.0), math.radians(5.0), 200.0)
    up = enu_rotation(ref)[2]
    p = EcefPosition(*(geodetic_to_ecef(ref).as_array() + 10.0 * up).tolist())
    v = ecef_to_enu(p, ref)
    assert v.east == pytest.approx(0.0, abs=1e-9)
    assert v.north == pytest.approx(0.0, abs=1e-9)
    assert v.up == pytest.approx(10.0, abs=1e-9)

    zero = ecef_to_enu(geodetic_to_ecef(ref), ref)
    assert np.linalg.norm(zero.as_array()) < 1e-9


def test_enu_isometry():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        ref = GeodeticPosition(
            rng.uniform(-1.4, 1.4), rng.uniform(-math.pi, math.pi), rng.uniform(0, 1e4)
        )
        p = EcefPosition(*rng.uniform(-3e7, 3e7, size=3))
        d = np.linalg.norm(p.as_array() - geodetic_to_ecef(ref).as_array())
        e = np.linalg.norm(ecef_to_enu(p, ref).as_array())
        assert e == pytest.approx(d, rel=1e-9)


def test_elevation_azimuth_trivials():
    ref = GeodeticPosition(math.radians(30.0), math.radians(-60.0), 0.0)
    rot = enu_rotation(ref)
    origin = geodetic_to_ecef(ref).as_array()

    zenith = origin + 2e7 * rot[2]
    (elev,) = elevation_angles([zenith], ref)
    assert elev == pytest.approx(math.pi / 2, abs=1e-9)

    north = origin + 1e6 * rot[1]
    (elev,) = elevation_angles([north], ref)
    _, az = reference_elevation_azimuth(EcefPosition(*north.tolist()), ref)
    assert elev == pytest.approx(0.0, abs=1e-9)
    assert az == pytest.approx(0.0, abs=1e-9)


def test_elevation_azimuth_matches_enu_oracle():
    rng = np.random.default_rng(11)
    for _ in range(500):
        ref = GeodeticPosition(rng.uniform(-1.4, 1.4), rng.uniform(-math.pi, math.pi), 0.0)
        sat = EcefPosition(*(rng.uniform(-1, 1, size=3) * 2.6e7 + np.array([1e5, 1e5, 1e5])))
        enu = ecef_to_enu(sat, ref).as_array()
        r = np.linalg.norm(enu)
        expected_elev = math.asin(enu[2] / r)
        expected_az = math.atan2(enu[0], enu[1]) % (2 * math.pi)
        (elev,) = elevation_angles([[sat.x, sat.y, sat.z]], ref)
        _, az = reference_elevation_azimuth(sat, ref)
        assert elev == pytest.approx(expected_elev, abs=1e-12)
        assert az == pytest.approx(expected_az, abs=1e-12)
        assert -math.pi / 2 <= elev <= math.pi / 2
        assert 0.0 <= az < 2 * math.pi


def test_zero_range_rejected():
    ref = GeodeticPosition(0.1, 0.2, 100.0)
    with pytest.raises(ZeroRange):
        elevation_angles([geodetic_to_ecef(ref).as_array()], ref)
    with pytest.raises(ZeroRange):
        reference_elevation_azimuth(geodetic_to_ecef(ref), ref)


def _bits(values):
    return [float(v).hex() for v in values]


def test_look_angles_match_per_satellite_body():
    # a stack of K satellites gets each one's elevation bit for bit, as the
    # per-satellite reference computes it with its azimuth, at the zenith,
    # on the horizon and below it included
    rng = np.random.default_rng(17)
    links = 0
    for trial in range(400):
        ref = GeodeticPosition(
            rng.uniform(-1.55, 1.55), rng.uniform(-math.pi, math.pi), rng.uniform(-100.0, 1e4)
        )
        rot = enu_rotation(ref)
        origin = geodetic_to_ecef(ref).as_array()
        k = int(rng.integers(0, 30))
        sats = rng.normal(size=(k, 3)) * 2.6e7  # about half below the horizon
        special = [
            origin + 2e7 * rot[2],  # zenith
            origin + 1e6 * rot[1],  # horizon, due north
            origin + 3e6 * rot[0],  # horizon, due east
            origin - 2e7 * rot[2],  # nadir
            origin + rng.normal(size=3) * 1e-3,  # a millimetre away
        ]
        sats = np.vstack([sats, special[: trial % 6]]) if trial % 6 else sats
        elevations = elevation_angles(sats, ref)
        expected = [reference_elevation_azimuth(EcefPosition(*s), ref) for s in sats]
        assert _bits(elevations) == _bits(e for e, _ in expected), trial
        for s, (e, _) in zip(sats[:3], expected):
            assert _bits(elevation_angles([s], ref)) == _bits([e])
        links += len(sats)
    assert links > 5000
    assert elevation_angles(np.empty((0, 3)), ref) == []


def test_look_angles_reject_a_coincident_satellite():
    ref = GeodeticPosition(0.1, 0.2, 100.0)
    origin = geodetic_to_ecef(ref).as_array()
    with pytest.raises(ZeroRange):
        elevation_angles(np.array([origin + 2e7, origin, origin - 2e7]), ref)
