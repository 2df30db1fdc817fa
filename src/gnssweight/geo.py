"""WGS-84 coordinate frames and satellite elevation geometry.

All functions are pure; angles are radians, distances are meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NearGeocenter, ZeroRange

# WGS-84 ellipsoid
WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563
WGS84_B = WGS84_A * (1.0 - WGS84_F)
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)

SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class EcefPosition:
    """Earth-centered Earth-fixed position, meters.

    The simulator builds one per satellite link, so ``__init__`` is written
    out: it stores the fields straight into the instance ``__dict__``,
    where the generated one makes an ``object.__setattr__`` call per field.
    The record stays a frozen dataclass: assigning a field raises
    ``FrozenInstanceError``, and ``fields``, ``replace``, eq, hash, repr and
    pickling are the generated ones.
    """

    x: float
    y: float
    z: float

    def __init__(self, x: float, y: float, z: float):
        d = self.__dict__
        d["x"] = x
        d["y"] = y
        d["z"] = z

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class GeodeticPosition:
    """Latitude/longitude in radians, ellipsoidal height in meters."""

    latitude: float
    longitude: float
    height: float


@dataclass(frozen=True)
class EnuVector:
    """East/north/up offset in the local tangent frame, meters."""

    east: float
    north: float
    up: float

    def as_array(self) -> np.ndarray:
        return np.array([self.east, self.north, self.up], dtype=float)


def geodetic_to_ecef(g: GeodeticPosition) -> EcefPosition:
    """Map a geodetic point onto the WGS-84 ellipsoid in ECEF."""
    sin_lat = math.sin(g.latitude)
    cos_lat = math.cos(g.latitude)
    n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
    x = (n + g.height) * cos_lat * math.cos(g.longitude)
    y = (n + g.height) * cos_lat * math.sin(g.longitude)
    z = (n * (1.0 - WGS84_E2) + g.height) * sin_lat
    return EcefPosition(x, y, z)


def ecef_to_geodetic(p: EcefPosition) -> GeodeticPosition:
    """Inverse of :func:`geodetic_to_ecef` by fixed-point latitude iteration.

    Bowring's first guess followed by iteration on the prime-vertical
    radius; converges far below the 1e-4 m round-trip contract for any
    point more than 100 km from the geocenter.
    """
    r = math.hypot(p.x, p.y)
    norm = math.sqrt(r * r + p.z * p.z)
    if norm <= 1e5:
        raise NearGeocenter(f"point norm {norm:.1f} m is inside the 1e5 m guard")
    lon = math.atan2(p.y, p.x)

    # Bowring initial latitude
    ep2 = (WGS84_A * WGS84_A - WGS84_B * WGS84_B) / (WGS84_B * WGS84_B)
    u = math.atan2(p.z * WGS84_A, r * WGS84_B)
    lat = math.atan2(
        p.z + ep2 * WGS84_B * math.sin(u) ** 3,
        r - WGS84_E2 * WGS84_A * math.cos(u) ** 3,
    )
    h = 0.0
    for _ in range(8):
        sin_lat = math.sin(lat)
        n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
        if abs(math.cos(lat)) > 1e-12:
            h = r / math.cos(lat) - n
        else:
            h = abs(p.z) - WGS84_B
        new_lat = math.atan2(p.z, r * (1.0 - WGS84_E2 * n / (n + h)))
        if abs(new_lat - lat) < 1e-14:
            lat = new_lat
            break
        lat = new_lat
    if lon <= -math.pi:
        lon += 2.0 * math.pi
    return GeodeticPosition(lat, lon, h)


def enu_rotation(ref: GeodeticPosition) -> np.ndarray:
    """Rows east/north/up of the ECEF-to-ENU rotation at ``ref``."""
    sin_lat = math.sin(ref.latitude)
    cos_lat = math.cos(ref.latitude)
    sin_lon = math.sin(ref.longitude)
    cos_lon = math.cos(ref.longitude)
    return np.array(
        [
            [-sin_lon, cos_lon, 0.0],
            [-sin_lat * cos_lon, -sin_lat * sin_lon, cos_lat],
            [cos_lat * cos_lon, cos_lat * sin_lon, sin_lat],
        ]
    )


def ecef_to_enu(p: EcefPosition, ref: GeodeticPosition) -> EnuVector:
    """Express ``p`` relative to ``ref`` in the local east/north/up frame."""
    d = p.as_array() - geodetic_to_ecef(ref).as_array()
    e, n, u = enu_rotation(ref) @ d
    return EnuVector(float(e), float(n), float(u))


def elevation_angles(sats, rx: GeodeticPosition) -> list[float]:
    """Elevations of K satellites seen from ``rx``, one float per row.

    ``sats`` is a (K, 3) array of ECEF positions. The ENU vectors come
    from one stacked matmul, which has the bits of ``enu_rotation(rx) @ d``
    for each row (a plain ``rot @ d.T`` does not); range and arcsine are
    taken per row with Python floats and ``math``, whose bits numpy's
    ufuncs do not share. The squares stay ``x**2`` (libm ``pow``): ``x*x``
    and ``np.square`` round differently for about one value in a thousand.
    A zero range shows up as the division by it.
    """
    d = np.asarray(sats, dtype=float).reshape(-1, 3) - geodetic_to_ecef(rx).as_array()
    enu = np.matmul(enu_rotation(rx)[None], d[:, :, None])
    sqrt, asin = math.sqrt, math.asin
    try:
        sines = [u / sqrt(e**2 + n**2 + u**2) for e, n, u in zip(*enu.reshape(-1, 3).T.tolist())]
    except ZeroDivisionError:
        raise ZeroRange("satellite coincides with receiver") from None
    return [asin(s) if -1.0 <= s <= 1.0 else asin(max(-1.0, min(1.0, s))) for s in sines]
