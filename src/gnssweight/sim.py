"""Synthetic measurement-campaign generator.

Satellites ride circular MEO shells with slow angular drift, the receiver
follows piecewise-linear waypoint trajectories, and pseudoranges carry
per-constellation clock bias, elevation-dependent Gaussian noise and
positive NLOS excess-path biases. Everything is deterministic under the
configured seed.
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
        if self.rate_hz <= 0:
            raise ConfigInvalid("rate_hz must be > 0")
        if self.duration_s <= 0:
            raise ConfigInvalid("duration_s must be > 0")
        if self.profile not in PROFILES:
            raise ConfigInvalid(f"profile must be one of {PROFILES}")
        if self.noise_sigma_m < 0 or self.nlos_bias_mean_m < 0:
            raise ConfigInvalid("noise/bias magnitudes must be nonnegative")
        for const, count in self.sv_counts.items():
            if not _is_int(const) or const not in tuple(ConstellationId):
                raise ConfigInvalid(f"sv_counts key {const!r} is not a ConstellationId")
            if not _is_int(count) or count < 0:
                raise ConfigInvalid(f"sv_counts[{const!r}] = {count!r} is not a nonnegative integer")
        if sum(self.sv_counts.values()) < 16:
            raise ConfigInvalid("too few satellites for a typical N >= 6 visible")
        if len(self.waypoints) < 2:
            raise ConfigInvalid("need at least two trajectory waypoints")


@dataclass
class SessionTruth:
    """Per-epoch ground truth and fault bookkeeping, aligned 1:1 with epochs."""

    positions: list = field(default_factory=list)  # EcefPosition
    fault_flags: list = field(default_factory=list)  # list[bool] per epoch, canonical order
    fault_biases: list = field(default_factory=list)  # list[float] per epoch, canonical order


def nlos_probability(knots, elevation: float) -> float:
    """Piecewise-linear interpolation of an NLOS probability curve whose
    (elevation, probability) ``knots`` are in ascending elevation."""
    if elevation <= knots[0][0]:
        return knots[0][1]
    for (e0, p0), (e1, p1) in zip(knots, knots[1:]):
        if elevation <= e1:
            f = (elevation - e0) / (e1 - e0)
            return p0 + f * (p1 - p0)
    return knots[-1][1]


def _trajectory(cfg: ScenarioConfig, times: np.ndarray):
    """Piecewise-linear ECEF positions along the waypoints."""
    pts = np.array([geodetic_to_ecef(w).as_array() for w in cfg.waypoints])
    n_seg = len(pts) - 1
    seg_T = cfg.duration_s / n_seg
    positions = np.empty((len(times), 3))
    for k, t in enumerate(times):
        s = min(int(t / seg_T), n_seg - 1)
        f = (t - s * seg_T) / seg_T
        positions[k] = pts[s] + f * (pts[s + 1] - pts[s])
    return positions


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``a``, shape (K, 1).

    A stacked matmul dot has the bits of ``np.linalg.norm`` on each row;
    ``np.linalg.norm(a, axis=1)`` does not.
    """
    return np.sqrt(np.matmul(a[:, None, :], a[:, :, None]))[:, :, 0]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b with np.cross's arithmetic, without its per-call axis handling."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=1)


def _orbit_basis(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (U, V) of the orbit planes with unit ``normals`` (K, 3).

    Each plane crosses its normal with the x axis, or with the y axis when
    the normal lies within about 26 degrees of the x axis.
    """
    near_x = np.abs(normals[:, 0]) > 0.9
    refs = np.zeros_like(normals)
    refs[~near_x, 0] = 1.0
    refs[near_x, 1] = 1.0
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
        cos = np.array([math.cos(p) for p in psi])[:, None]
        sin = np.array([math.sin(p) for p in psi])[:, None]
        return self.radii * (cos * self.u + sin * self.v)


def _init_orbits(cfg: ScenarioConfig, rng: np.random.Generator) -> _Orbits:
    """Random circular orbit (plane normal, then phase) per satellite."""
    keys, normals, phases = [], [], []
    for const, count in sorted(cfg.sv_counts.items()):
        for sv in range(1, count + 1):
            keys.append((const, sv))
            normals.append(rng.normal(size=3))
            # uniform(0, 2π) is 0.0 + 2π · next_double: the same double and draw
            phases.append(2.0 * math.pi * rng.random())
    normals = np.array(normals).reshape(-1, 3)
    u, v = _orbit_basis(normals / _row_norms(normals))
    return _Orbits(
        keys=keys,
        radii=np.array([SHELL_RADIUS_M[c] for c, _ in keys]).reshape(-1, 1),
        periods=[ORBIT_PERIOD_S[c] for c, _ in keys],
        phases=phases,
        u=u,
        v=v,
    )


def generate_session(cfg: ScenarioConfig, session_id: str = "s000"):
    """Generate one session: (epochs with truth, SessionTruth).

    Geometry is computed for all satellites of an epoch at once; the
    NLOS, noise and C/N0 draws are scalar, one link after another in
    canonical order, so the random stream is fixed by the seed alone.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    dt = 1.0 / cfg.rate_hz
    n_epochs = int(round(cfg.duration_s * cfg.rate_hz))
    times = np.arange(n_epochs) * dt
    positions = _trajectory(cfg, times)
    orbits = _init_orbits(cfg, rng)

    consts = sorted(cfg.sv_counts.keys())
    clock = {c: float(rng.uniform(-CLOCK_INIT_SPAN_S, CLOCK_INIT_SPAN_S)) for c in consts}

    knots = sorted(_NLOS_CURVES[cfg.profile])
    sin_mask = math.sin(ELEVATION_MASK)
    cn0_sigma2 = CN0_NOISE_SIGMA_DB**2
    if cfg.profile == "urban_canyon":
        cn0_sigma2 += MP_CN0_VAR_INFLATION_DB2
    cn0_sigma = math.sqrt(cn0_sigma2)

    lock_time: dict = {}
    epochs = []
    truth = SessionTruth()
    for k, t in enumerate(times.tolist()):
        rx = EcefPosition.from_array(positions[k])
        for c in consts:
            clock[c] += float(rng.normal(0.0, CLOCK_WALK_SIGMA_S))

        sats = orbits.positions(t)
        elevations = elevation_angles(sats, ecef_to_geodetic(rx))
        ranges = _row_norms(positions[k] - sats)[:, 0].tolist()
        measurements, flags, biases = [], [], []
        for key, elev, rng_m, sat in zip(orbits.keys, elevations, ranges, sats.tolist()):
            if elev < ELEVATION_MASK:
                lock_time.pop(key, None)
                continue
            lt = lock_time.get(key, -dt) + dt
            lock_time[key] = lt

            is_nlos = bool(rng.random() < nlos_probability(knots, elev))
            bias = float(rng.exponential(cfg.nlos_bias_mean_m)) if is_nlos else 0.0

            sin_elev = math.sin(elev)
            sigma = cfg.noise_sigma_m / max(sin_elev, sin_mask)
            noise = float(rng.normal(0.0, sigma)) if cfg.noise_sigma_m > 0 else 0.0
            const, sv = key
            pr = rng_m + SPEED_OF_LIGHT * clock[const] + noise + bias

            cn0 = (
                CN0_BASE_DBHZ
                - CN0_ELEV_LOSS_DB * (1.0 - sin_elev)
                - (NLOS_CN0_PENALTY_DB if is_nlos else 0.0)
                + (float(rng.normal(0.0, cn0_sigma)) if cn0_sigma2 > 0 else 0.0)
            )
            # np.clip's arithmetic, signed zero included
            cn0 = min(cn0, 60.0) if cn0 > 0.0 else 0.0
            measurements.append(
                PseudorangeMeasurement(
                    constellation=const,
                    sv_id=sv,
                    band=Band.L1,
                    pseudorange=pr,
                    sat_pos=EcefPosition(*sat),
                    cn0=cn0,
                    lock_time=lt,
                )
            )
            flags.append(is_nlos)
            biases.append(bias)
        # the orbits are in canonical order, so flags and biases line up
        # with the epoch's measurements
        epochs.append(Epoch(time=t, measurements=measurements, truth=rx, session_id=session_id))
        truth.positions.append(rx)
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


def check_profiles(profiles) -> None:
    """A campaign's profiles: at least one, each known, none repeated.

    Session ids are ``<profile>-<index>``, so a repeated profile would
    write two sessions under each of its ids.
    """
    seen = set()
    for p in profiles:
        if p not in PROFILES:
            raise ConfigInvalid(f"'simulate.profiles' entry {p!r} not one of {PROFILES}")
        if p in seen:
            raise ConfigInvalid(f"'simulate.profiles' repeats {p!r}")
        seen.add(p)
    if not seen:
        raise ConfigInvalid("'simulate.profiles' must name at least one profile")


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
    splits.
    """
    from .dataio import Dataset, Session

    if sessions_per_profile < 3:
        raise ConfigInvalid("need >= 3 sessions per profile to split 60/20/20")
    check_profiles(profiles)
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
