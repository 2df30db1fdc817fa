"""Synthetic measurement-campaign generator.

Satellites ride circular MEO shells with slow angular drift, the receiver
follows piecewise-linear waypoint trajectories, and pseudoranges carry
per-constellation clock bias, elevation-dependent Gaussian noise and
positive NLOS excess-path biases. Everything is deterministic under the
configured seed.

Each epoch's satellite geometry (positions, elevations, ranges) is one
numpy stack. Everything per link stays scalar Python: the NLOS, noise and
C/N0 draws, one after another in canonical order, so that the random
stream is fixed by the seed alone, and the arithmetic around them, which
has the same bits on Python floats and costs less there than as per-epoch
numpy on multi-epoch sessions. The trajectory is scalar too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigInvalid
from .geo import (
    SPEED_OF_LIGHT,
    EcefPosition,
    GeodeticPosition,
    ecef_to_geodetic,
    elevation_angles,
    geodetic_to_ecef,
)
from .model import Band, ConstellationId, Epoch, PseudorangeMeasurement

SHELL_RADIUS_M = {
    ConstellationId.GPS: 26.56e6,
    ConstellationId.GLONASS: 25.51e6,
    ConstellationId.GALILEO: 29.60e6,
    ConstellationId.BEIDOU: 27.91e6,
}
ORBIT_PERIOD_S = {
    ConstellationId.GPS: 43082.0,
    ConstellationId.GLONASS: 40544.0,
    ConstellationId.GALILEO: 50680.0,
    ConstellationId.BEIDOU: 46740.0,
}

PROFILES = ("open_sky", "suburban", "urban_canyon")

# (elevation_rad, probability) knots per environment, linear in between.
_NLOS_CURVES = {
    "open_sky": [(math.radians(5.0), 0.02), (math.radians(90.0), 0.0)],
    "suburban": [(math.radians(5.0), 0.15), (math.radians(90.0), 0.01)],
    "urban_canyon": [(math.radians(5.0), 0.45), (math.radians(90.0), 0.05)],
}

# Signal and clock settings shared by every scenario. Every session
# tracks the one L1 band.
NLOS_CN0_PENALTY_DB = 10.0
MP_CN0_VAR_INFLATION_DB2 = 4.0  # extra C/N0 variance in urban multipath
CN0_BASE_DBHZ = 50.0
CN0_ELEV_LOSS_DB = 8.0
CN0_NOISE_SIGMA_DB = 0.5
ELEVATION_MASK = math.radians(5.0)
CLOCK_INIT_SPAN_S = 1e-4
CLOCK_WALK_SIGMA_S = 1e-8

_DEFAULT_WAYPOINTS = [
    GeodeticPosition(math.radians(45.19), math.radians(5.72), 220.0),
    GeodeticPosition(math.radians(45.21), math.radians(5.74), 235.0),
    GeodeticPosition(math.radians(45.20), math.radians(5.77), 228.0),
]

_CONSTELLATIONS = frozenset(ConstellationId)  # an int key is found by value


def _is_int(v):
    """An int that is not a bool (True would pass for 1 satellite or GLONASS)."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class ScenarioConfig:
    """One session's settings. The ``profile`` owns its NLOS probability
    curve (``_NLOS_CURVES``) and, for ``urban_canyon``, the multipath
    inflation of C/N0 noise."""

    seed: int = 0
    duration_s: float = 40.0
    rate_hz: float = 5.0
    sv_counts: dict = field(
        default_factory=lambda: {
            ConstellationId.GPS: 10,
            ConstellationId.GALILEO: 8,
            ConstellationId.GLONASS: 8,
        }
    )
    noise_sigma_m: float = 1.0  # zenith-equivalent; scales with 1/sin(elevation)
    nlos_bias_mean_m: float = 30.0
    profile: str = "urban_canyon"
    waypoints: tuple = tuple(_DEFAULT_WAYPOINTS)

    def validate(self):
        if not (math.isfinite(self.rate_hz) and self.rate_hz > 0):
            raise ConfigInvalid(f"'simulate.rate_hz' must be finite and > 0, got {self.rate_hz!r}")
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ConfigInvalid(f"duration_s must be finite and > 0, got {self.duration_s!r}")
        if self.profile not in PROFILES:
            raise ConfigInvalid(f"profile must be one of {PROFILES}")
        for name in ("noise_sigma_m", "nlos_bias_mean_m"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigInvalid(f"'simulate.{name}' must be finite and >= 0, got {value!r}")
        for const, count in self.sv_counts.items():
            if not _is_int(const) or const not in _CONSTELLATIONS:
                raise ConfigInvalid(f"sv_counts key {const!r} is not a ConstellationId")
            if not _is_int(count) or count < 0:
                raise ConfigInvalid(f"sv_counts[{const!r}] = {count!r} is not a nonnegative integer")
        if sum(self.sv_counts.values()) < 16:
            raise ConfigInvalid("too few satellites for a typical N >= 6 visible")
        if len(self.waypoints) < 2:
            raise ConfigInvalid("need at least two trajectory waypoints")


@dataclass
class SessionTruth:
    """Per-epoch fault bookkeeping, aligned 1:1 with epochs (each epoch
    carries its own truth position)."""

    fault_flags: list = field(default_factory=list)  # list[bool] per epoch, canonical order
    fault_biases: list = field(default_factory=list)  # list[float] per epoch, canonical order


def nlos_probability(knots, elevation: float) -> float:
    """Piecewise-linear interpolation of an NLOS probability curve whose
    (elevation, probability) ``knots`` are in ascending elevation."""
    e0, p0 = knots[0]
    if elevation <= e0:
        return p0
    for e1, p1 in knots:  # the first knot is passed over: elevation > e0
        if elevation <= e1:
            f = (elevation - e0) / (e1 - e0)
            return p0 + f * (p1 - p0)
        e0, p0 = e1, p1
    return p0


def _trajectory(cfg: ScenarioConfig, times):
    """Piecewise-linear ECEF positions along the waypoints, an (x, y, z)
    tuple per time, in Python floats: the bits of numpy's elementwise
    arithmetic, without per-epoch numpy calls, and cheaper than one
    vectorized pass on a session of a few epochs."""
    pts = [geodetic_to_ecef(w) for w in cfg.waypoints]
    legs = [(a.x, a.y, a.z, b.x - a.x, b.y - a.y, b.z - a.z) for a, b in zip(pts, pts[1:])]
    n_seg = len(legs)
    seg_T = cfg.duration_s / n_seg
    positions = []
    for t in times:
        s = min(int(t / seg_T), n_seg - 1)
        f = (t - s * seg_T) / seg_T
        x, y, z, dx, dy, dz = legs[s]
        positions.append((x + f * dx, y + f * dy, z + f * dz))
    return positions


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``a``, shape (K, 1).

    A stacked matmul dot has the bits of ``np.linalg.norm`` on each row;
    ``np.linalg.norm(a, axis=1)`` does not.
    """
    return np.sqrt(np.matmul(a[:, None, :], a[:, :, None]))[:, :, 0]


_NEXT = np.array([1, 2, 0])  # column k + 1, cyclic
_PREV = np.array([2, 0, 1])  # column k - 1, cyclic


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b with np.cross's arithmetic (column k is
    a[k+1] * b[k-1] - a[k-1] * b[k+1]), without its per-call axis handling."""
    return a.take(_NEXT, axis=1) * b.take(_PREV, axis=1) - a.take(_PREV, axis=1) * b.take(_NEXT, axis=1)


def _orbit_basis(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (U, V) of the orbit planes with unit ``normals`` (K, 3).

    Each plane crosses its normal with the x axis, or with the y axis when
    the normal lies within about 26 degrees of the x axis.
    """
    near_x = np.abs(normals[:, 0]) > 0.9
    refs = np.where(near_x[:, None], (0.0, 1.0, 0.0), (1.0, 0.0, 0.0))
    u = _cross(normals, refs)
    u /= _row_norms(u)
    return u, _cross(normals, u)


@dataclass(frozen=True)
class _Orbits:
    """Circular orbits of a session's satellites, in canonical (constellation, sv) order."""

    keys: list  # (constellation, sv) per satellite
    radii: np.ndarray  # (K, 1) shell radius, m
    periods: list  # orbit period per satellite, s
    phases: list  # phase at t = 0 per satellite, rad
    u: np.ndarray  # (K, 3) orbit-plane basis
    v: np.ndarray  # (K, 3)

    def positions(self, t: float) -> np.ndarray:
        """ECEF positions (K, 3) of every satellite at time ``t``."""
        w = 2.0 * math.pi * t
        psi = [phase + w / period for phase, period in zip(self.phases, self.periods)]
        cos, sin = math.cos, math.sin
        return self.radii * (np.array([cos(p) for p in psi])[:, None] * self.u
                             + np.array([sin(p) for p in psi])[:, None] * self.v)


def _init_orbits(cfg: ScenarioConfig, rng: np.random.Generator) -> _Orbits:
    """Random circular orbit (plane normal, then phase) per satellite."""
    normal, random = rng.normal, rng.random
    two_pi = 2.0 * math.pi
    keys, normals, phases, radii, periods = [], [], [], [], []
    for const, count in sorted(cfg.sv_counts.items()):
        for sv in range(1, count + 1):
            keys.append((const, sv))
            normals.append(normal(size=3))
            # uniform(0, 2π) is 0.0 + 2π · next_double: the same double and draw
            phases.append(two_pi * random())
        radii += [SHELL_RADIUS_M[const]] * count
        periods += [ORBIT_PERIOD_S[const]] * count
    normals = np.array(normals).reshape(-1, 3)
    u, v = _orbit_basis(normals / _row_norms(normals))
    return _Orbits(keys=keys, radii=np.array(radii).reshape(-1, 1), periods=periods, phases=phases, u=u, v=v)


def generate_session(cfg: ScenarioConfig, session_id: str = "s000"):
    """Generate one session: (epochs with truth, SessionTruth).

    Geometry is computed for all satellites of an epoch at once. The NLOS,
    noise and C/N0 draws are scalar, one link after another in canonical
    order, so the random stream is fixed by the seed alone; the arithmetic
    of each link stays on Python floats beside them, because per-epoch numpy
    arrays cost more than they save on multi-epoch sessions (same bits
    either way).
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    dt = 1.0 / cfg.rate_hz
    # k * dt as np.arange(n) * dt would compute it
    times = [k * dt for k in range(int(round(cfg.duration_s * cfg.rate_hz)))]
    positions = _trajectory(cfg, times)
    orbits = _init_orbits(cfg, rng)

    normal, random, exponential = rng.normal, rng.random, rng.exponential
    consts = sorted(cfg.sv_counts.keys())
    clock = {c: rng.uniform(-CLOCK_INIT_SPAN_S, CLOCK_INIT_SPAN_S) for c in consts}

    knots = sorted(_NLOS_CURVES[cfg.profile])
    noise_sigma, bias_mean = cfg.noise_sigma_m, cfg.nlos_bias_mean_m
    mask, sin_mask = ELEVATION_MASK, math.sin(ELEVATION_MASK)
    walk_sigma = CLOCK_WALK_SIGMA_S
    cn0_base, cn0_loss, nlos_penalty = CN0_BASE_DBHZ, CN0_ELEV_LOSS_DB, NLOS_CN0_PENALTY_DB
    cn0_sigma2 = CN0_NOISE_SIGMA_DB**2
    if cfg.profile == "urban_canyon":
        cn0_sigma2 += MP_CN0_VAR_INFLATION_DB2
    cn0_sigma = math.sqrt(cn0_sigma2)
    sin, c_light, l1 = math.sin, SPEED_OF_LIGHT, Band.L1

    lock_time: dict = {}
    epochs = []
    truth = SessionTruth()
    for t, p in zip(times, positions):
        rx = EcefPosition(*p)
        for c in consts:
            clock[c] += normal(0.0, walk_sigma)

        sats = orbits.positions(t)
        elevations = elevation_angles(sats, ecef_to_geodetic(rx))
        ranges = _row_norms(np.subtract(p, sats))[:, 0].tolist()
        measurements, flags, biases = [], [], []
        for key, elev, rng_m, x, y, z in zip(orbits.keys, elevations, ranges, *sats.T.tolist()):
            if elev < mask:
                lock_time.pop(key, None)
                continue
            lt = lock_time[key] = lock_time.get(key, -dt) + dt

            is_nlos = random() < nlos_probability(knots, elev)
            bias = exponential(bias_mean) if is_nlos else 0.0

            sin_elev = sin(elev)
            noise = normal(0.0, noise_sigma / max(sin_elev, sin_mask)) if noise_sigma > 0 else 0.0
            const, sv = key
            pr = rng_m + c_light * clock[const] + noise + bias

            cn0 = (
                cn0_base
                - cn0_loss * (1.0 - sin_elev)
                - (nlos_penalty if is_nlos else 0.0)
                + (normal(0.0, cn0_sigma) if cn0_sigma2 > 0 else 0.0)
            )
            # np.clip's arithmetic, signed zero included
            cn0 = min(cn0, 60.0) if cn0 > 0.0 else 0.0
            measurements.append(PseudorangeMeasurement(const, sv, l1, pr, EcefPosition(x, y, z), cn0, lt))
            flags.append(is_nlos)
            biases.append(bias)
        # the orbits are in canonical order, so flags and biases line up
        # with the epoch's measurements
        epochs.append(Epoch(time=t, measurements=measurements, truth=rx, session_id=session_id))
        truth.fault_flags.append(flags)
        truth.fault_biases.append(biases)
    return epochs, truth


def _jitter_waypoints(base, rng: np.random.Generator):
    """Shift the whole trajectory a few km so sessions are distinct."""
    dlat = math.radians(rng.uniform(-0.2, 0.2))
    dlon = math.radians(rng.uniform(-0.2, 0.2))
    return tuple(
        GeodeticPosition(w.latitude + dlat, w.longitude + dlon, w.height)
        for w in base
    )


def check_campaign(profiles, sessions_per_profile, epochs_per_session, rate_hz, **overrides) -> None:
    """ConfigInvalid, naming the ``simulate`` key, for ``generate_campaign``
    settings it cannot draw: fewer than 3 sessions per profile (no
    60/20/20 split), no epochs, no profile or an unknown or repeated one
    (session ids are ``<profile>-<index>``, so a repeated profile would
    write two sessions under each of its ids), and what
    ``ScenarioConfig.validate`` refuses of the rate and the ``overrides``."""
    if sessions_per_profile < 3:
        raise ConfigInvalid("'simulate.sessions_per_profile' must be >= 3 to split 60/20/20")
    if epochs_per_session < 1:
        raise ConfigInvalid("'simulate.epochs_per_session' must be >= 1")
    seen = set()
    for p in profiles:
        if p not in PROFILES:
            raise ConfigInvalid(f"'simulate.profiles' entry {p!r} not one of {PROFILES}")
        if p in seen:
            raise ConfigInvalid(f"'simulate.profiles' repeats {p!r}")
        seen.add(p)
    if not seen:
        raise ConfigInvalid("'simulate.profiles' must name at least one profile")
    ScenarioConfig(rate_hz=rate_hz, **overrides).validate()


# Epochs per campaign session, the default of ``generate_campaign`` and of
# the run configuration's ``simulate.epochs_per_session``.
EPOCHS_PER_SESSION = 200


def generate_campaign(
    profiles,
    sessions_per_profile: int,
    seed: int,
    epochs_per_session: int = EPOCHS_PER_SESSION,
    rate_hz: float = ScenarioConfig.rate_hz,
    **overrides,
):
    """Multi-session campaign with a session-level 60/20/20 split.

    Returns a Dataset (see dataio). Sessions within each profile are
    assigned to train/val/test disjointly, so no session leaks across
    splits. The settings are checked first, by ``check_campaign``.
    """
    from .dataio import Dataset, Session

    check_campaign(profiles, sessions_per_profile, epochs_per_session, rate_hz, **overrides)
    master = np.random.default_rng(seed)
    duration = epochs_per_session / rate_hz
    sessions = []
    for profile in profiles:
        n = sessions_per_profile
        n_val = max(1, int(round(0.2 * n)))
        n_test = max(1, int(round(0.2 * n)))
        n_train = n - n_val - n_test
        assignments = ["train"] * n_train + ["val"] * n_val + ["test"] * n_test
        master.shuffle(assignments)
        for k in range(n):
            session_seed = int(master.integers(0, 2**63 - 1))
            cfg = ScenarioConfig(
                seed=session_seed,
                duration_s=duration,
                rate_hz=rate_hz,
                profile=profile,
                waypoints=_jitter_waypoints(_DEFAULT_WAYPOINTS, np.random.default_rng(session_seed ^ 0x5EED)),
                **overrides,
            )
            sid = f"{profile}-{k:03d}"
            epochs, truth = generate_session(cfg, session_id=sid)
            sessions.append(
                Session(
                    session_id=sid,
                    profile=profile,
                    split=assignments[k],
                    epochs=epochs,
                    truth=truth,
                )
            )
    return Dataset(seed=seed, sessions=sessions)
