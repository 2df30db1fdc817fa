"""Synthetic measurement-campaign generator.

Satellites ride circular MEO shells with slow angular drift, the receiver
follows piecewise-linear waypoint trajectories, and pseudoranges carry
per-constellation clock bias, elevation-dependent Gaussian noise and
positive NLOS excess-path biases. Everything is deterministic under the
configured seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigInvalid
from .geo import (
    SPEED_OF_LIGHT,
    EcefPosition,
    GeodeticPosition,
    ecef_to_geodetic,
    elevation_azimuth,
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


@dataclass(frozen=True)
class ScenarioConfig:
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
    nlos_prob_curve: tuple = tuple(_NLOS_CURVES["urban_canyon"])
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
        for elev, p in self.nlos_prob_curve:
            if not 0.0 <= p <= 1.0:
                raise ConfigInvalid(f"nlos_prob_curve probability {p} outside [0, 1]")
            if not 0.0 <= elev <= math.pi / 2:
                raise ConfigInvalid("nlos_prob_curve elevation outside [0, pi/2]")
        if self.noise_sigma_m < 0 or self.nlos_bias_mean_m < 0:
            raise ConfigInvalid("noise/bias magnitudes must be nonnegative")
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

    def epochs_with_fault(self) -> int:
        return sum(1 for flags in self.fault_flags if any(flags))


def nlos_probability(curve, elevation: float) -> float:
    """Piecewise-linear interpolation of the NLOS probability curve."""
    knots = sorted(curve)
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


def _cross(a, b) -> np.ndarray:
    """a x b with np.cross's arithmetic, without its per-call axis handling."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _orbit_basis(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis (u, v) of the orbit plane with unit ``normal``."""
    ref = np.array([1.0, 0.0, 0.0])
    if abs(normal @ ref) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    u = _cross(normal, ref)
    u /= np.linalg.norm(u)
    return u, _cross(normal, u)


def _init_orbits(cfg: ScenarioConfig, rng: np.random.Generator):
    """Random circular orbit (plane basis + phase) per satellite."""
    orbits = []
    for const, count in sorted(cfg.sv_counts.items()):
        for sv in range(1, count + 1):
            normal = rng.normal(size=3)
            normal /= np.linalg.norm(normal)
            u, v = _orbit_basis(normal)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            orbits.append((const, sv, u, v, phase))
    return orbits


def _sat_position(const, u, v, phase, t) -> np.ndarray:
    r = SHELL_RADIUS_M[const]
    psi = phase + 2.0 * math.pi * t / ORBIT_PERIOD_S[const]
    return r * (math.cos(psi) * u + math.sin(psi) * v)


def generate_session(cfg: ScenarioConfig, session_id: str = "s000"):
    """Generate one session: (epochs with truth, SessionTruth)."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    dt = 1.0 / cfg.rate_hz
    n_epochs = int(round(cfg.duration_s * cfg.rate_hz))
    times = np.arange(n_epochs) * dt
    positions = _trajectory(cfg, times)
    orbits = _init_orbits(cfg, rng)

    consts = sorted(cfg.sv_counts.keys())
    clock = {c: float(rng.uniform(-CLOCK_INIT_SPAN_S, CLOCK_INIT_SPAN_S)) for c in consts}

    lock_time: dict = {}
    epochs = []
    truth = SessionTruth()
    for k, t in enumerate(times):
        rx = EcefPosition.from_array(positions[k])
        rx_geo = ecef_to_geodetic(rx)
        for c in consts:
            clock[c] += float(rng.normal(0.0, CLOCK_WALK_SIGMA_S))

        raw = []
        for const, sv, u, v, phase in orbits:
            sat = EcefPosition.from_array(_sat_position(const, u, v, phase, float(t)))
            elev, _ = elevation_azimuth(sat, rx_geo)
            key = (const, sv)
            if elev < ELEVATION_MASK:
                lock_time.pop(key, None)
                continue
            lt = lock_time.get(key, -dt) + dt
            lock_time[key] = lt

            p_nlos = nlos_probability(cfg.nlos_prob_curve, elev)
            is_nlos = bool(rng.random() < p_nlos)
            bias = float(rng.exponential(cfg.nlos_bias_mean_m)) if is_nlos else 0.0

            sigma = cfg.noise_sigma_m / max(math.sin(elev), math.sin(ELEVATION_MASK))
            noise = float(rng.normal(0.0, sigma)) if cfg.noise_sigma_m > 0 else 0.0
            rng_m = float(np.linalg.norm(rx.as_array() - sat.as_array()))
            pr = rng_m + SPEED_OF_LIGHT * clock[const] + noise + bias

            cn0_sigma2 = CN0_NOISE_SIGMA_DB**2
            if cfg.profile == "urban_canyon":
                cn0_sigma2 += MP_CN0_VAR_INFLATION_DB2
            cn0 = (
                CN0_BASE_DBHZ
                - CN0_ELEV_LOSS_DB * (1.0 - math.sin(elev))
                - (NLOS_CN0_PENALTY_DB if is_nlos else 0.0)
                + (float(rng.normal(0.0, math.sqrt(cn0_sigma2))) if cn0_sigma2 > 0 else 0.0)
            )
            cn0 = float(np.clip(cn0, 0.0, 60.0))
            raw.append(
                (
                    PseudorangeMeasurement(
                        constellation=const,
                        sv_id=sv,
                        band=Band.L1,
                        pseudorange=pr,
                        sat_pos=sat,
                        cn0=cn0,
                        lock_time=lt,
                    ),
                    is_nlos,
                    bias,
                )
            )
        raw.sort(key=lambda item: item[0].key)  # canonical order, same as Epoch's
        epoch = Epoch(
            time=float(t),
            measurements=[m for m, _, _ in raw],
            truth=rx,
            session_id=session_id,
        )
        epochs.append(epoch)
        truth.positions.append(rx)
        truth.fault_flags.append([f for _, f, _ in raw])
        truth.fault_biases.append([b for _, _, b in raw])
    return epochs, truth


def profile_config(profile: str, seed: int, **overrides) -> ScenarioConfig:
    """Scenario preset for an environment profile."""
    if profile not in PROFILES:
        raise ConfigInvalid(f"profile must be one of {PROFILES}")
    cfg = ScenarioConfig(
        seed=seed,
        profile=profile,
        nlos_prob_curve=tuple(_NLOS_CURVES[profile]),
    )
    return replace(cfg, **overrides) if overrides else cfg


def _jitter_waypoints(base, rng: np.random.Generator):
    """Shift the whole trajectory a few km so sessions are distinct."""
    dlat = math.radians(rng.uniform(-0.2, 0.2))
    dlon = math.radians(rng.uniform(-0.2, 0.2))
    return tuple(
        GeodeticPosition(w.latitude + dlat, w.longitude + dlon, w.height)
        for w in base
    )


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
            cfg = profile_config(
                profile,
                session_seed,
                duration_s=duration,
                rate_hz=rate_hz,
                **overrides,
            )
            cfg = replace(
                cfg, waypoints=_jitter_waypoints(cfg.waypoints, np.random.default_rng(session_seed ^ 0x5EED))
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
