import math

import numpy as np
import pytest

from conftest import reference_elevation_azimuth
from gnssweight import sim
from gnssweight.errors import ConfigInvalid
from gnssweight.geo import SPEED_OF_LIGHT, EcefPosition, ecef_to_geodetic, geodetic_to_ecef
from gnssweight.model import Band, ConstellationId, Epoch, PseudorangeMeasurement
from gnssweight.nn import truth_residuals
from gnssweight.sim import (
    ORBIT_PERIOD_S,
    PROFILES,
    SHELL_RADIUS_M,
    ScenarioConfig,
    SessionTruth,
    generate_campaign,
    generate_session,
    nlos_probability,
)


def _quiet_cfg(seed=0, **kw):
    base = dict(
        seed=seed,
        duration_s=4.0,
        rate_hz=5.0,
        noise_sigma_m=0.0,
        profile="open_sky",
    )
    base.update(kw)
    return ScenarioConfig(**base)


@pytest.fixture
def quiet(monkeypatch):
    """No C/N0 noise and no receiver clock walk in the sessions a test
    generates, and no NLOS link in an open-sky one (``_quiet_cfg``'s)."""
    monkeypatch.setitem(sim._NLOS_CURVES, "open_sky", [(math.radians(5.0), 0.0), (math.radians(90.0), 0.0)])
    monkeypatch.setattr(sim, "CN0_NOISE_SIGMA_DB", 0.0)
    monkeypatch.setattr(sim, "CLOCK_WALK_SIGMA_S", 0.0)


def test_nlos_probability_interpolation():
    curve = ((math.radians(5.0), 0.4), (math.radians(90.0), 0.0))
    assert nlos_probability(curve, math.radians(2.0)) == 0.4
    assert nlos_probability(curve, math.radians(5.0)) == 0.4
    assert nlos_probability(curve, math.radians(90.0)) == pytest.approx(0.0)
    mid = nlos_probability(curve, math.radians(47.5))
    assert mid == pytest.approx(0.2, abs=1e-12)


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        _quiet_cfg(rate_hz=0.0).validate()
    with pytest.raises(ConfigInvalid):
        _quiet_cfg(profile="indoor").validate()
    with pytest.raises(ConfigInvalid):
        _quiet_cfg(sv_counts={ConstellationId.GPS: 4}).validate()
    with pytest.raises(ConfigInvalid, match="waypoints"):
        _quiet_cfg(waypoints=[(0.0, 0.0, 0.0)]).validate()


@pytest.mark.parametrize("setting, value", [
    ("rate_hz", math.nan),
    ("rate_hz", math.inf),
    ("duration_s", math.nan),
    ("duration_s", math.inf),
    ("noise_sigma_m", math.nan),
    ("noise_sigma_m", math.inf),
    ("nlos_bias_mean_m", math.nan),
    ("nlos_bias_mean_m", math.inf),
])
def test_non_finite_settings_are_rejected(setting, value):
    # a NaN noise used to give the noise-free campaign (every "> 0" test is
    # False), an infinite one or bias wrote inf tokens that read_dataset
    # rejects, and a NaN rate or duration failed with a bare ValueError
    with pytest.raises(ConfigInvalid, match=setting):
        _quiet_cfg(**{setting: value}).validate()
    if setting != "duration_s":  # generate_campaign derives the duration
        with pytest.raises(ConfigInvalid, match=setting):
            generate_campaign(["open_sky"], 3, 1, epochs_per_session=2, **{setting: value})


def test_noise_free_session_is_self_consistent(quiet):
    """Every pseudorange must equal range + c*clock exactly as constructed."""
    epochs, truth = generate_session(_quiet_cfg(seed=3))
    assert len(epochs) == 20
    for k, epoch in enumerate(epochs):
        assert epoch.truth is not None
        clocks = dict(zip(epoch.constellations(), truth_residuals(epoch)[1] / SPEED_OF_LIGHT))
        rx = epoch.truth.as_array()
        for m in epoch.measurements:
            rng_m = np.linalg.norm(rx - m.sat_pos.as_array())
            resid = m.pseudorange - rng_m - SPEED_OF_LIGHT * clocks[m.constellation]
            assert abs(resid) < 1e-6
        assert not any(truth.fault_flags[k])


def test_satellites_on_their_shells(quiet):
    epochs, _ = generate_session(_quiet_cfg(seed=1))
    for m in epochs[0].measurements:
        r = np.linalg.norm(m.sat_pos.as_array())
        assert r == pytest.approx(SHELL_RADIUS_M[m.constellation], rel=1e-12)


def test_visible_satellites_above_mask(quiet):
    cfg = _quiet_cfg(seed=2)
    epochs, _ = generate_session(cfg)
    for epoch in epochs:
        assert epoch.n >= 6
        ref = ecef_to_geodetic(epoch.truth)
        for m in epoch.measurements:
            elev, _ = reference_elevation_azimuth(m.sat_pos, ref)
            assert elev >= sim.ELEVATION_MASK - 1e-9


def test_fault_bookkeeping_matches_bias_construction(quiet):
    cfg = ScenarioConfig(profile="urban_canyon", seed=11, duration_s=20.0, noise_sigma_m=0.0)
    epochs, truth = generate_session(cfg)
    n_flagged = 0
    for k, epoch in enumerate(epochs):
        clocks = dict(zip(epoch.constellations(), truth_residuals(epoch)[1] / SPEED_OF_LIGHT))
        flags = truth.fault_flags[k]
        biases = truth.fault_biases[k]
        assert len(flags) == epoch.n == len(biases)
        for i, m in enumerate(epoch.measurements):
            rng_m = np.linalg.norm(epoch.truth.as_array() - m.sat_pos.as_array())
            resid = m.pseudorange - rng_m - SPEED_OF_LIGHT * clocks[m.constellation]
            # the per-constellation clock fit absorbs the mean injected bias,
            # so each residual is its own bias minus that mean, exactly
            same = [
                j for j, mm in enumerate(epoch.measurements)
                if mm.constellation == m.constellation
            ]
            smeared = sum(biases[j] for j in same) / len(same)
            assert resid == pytest.approx(biases[i] - smeared, abs=1e-6)
            if flags[i]:
                n_flagged += 1
                assert biases[i] > 0.0
            else:
                assert biases[i] == 0.0
    assert n_flagged > 0
    assert sum(any(f) for f in truth.fault_flags) > 0


def test_nlos_rate_tracks_curve(quiet, monkeypatch):
    p_flat = 0.25
    monkeypatch.setitem(sim._NLOS_CURVES, "open_sky", [(math.radians(5.0), p_flat), (math.radians(90.0), p_flat)])
    cfg = _quiet_cfg(seed=5, duration_s=60.0, nlos_bias_mean_m=30.0)
    _, truth = generate_session(cfg)
    flags = [f for flags in truth.fault_flags for f in flags]
    rate = np.mean(flags)
    assert rate == pytest.approx(p_flat, abs=0.02)


def test_nlos_depresses_cn0():
    cfg = ScenarioConfig(profile="urban_canyon", seed=6, duration_s=40.0, noise_sigma_m=0.0)
    epochs, truth = generate_session(cfg)
    nlos_cn0, los_cn0 = [], []
    for k, epoch in enumerate(epochs):
        for i, m in enumerate(epoch.measurements):
            (nlos_cn0 if truth.fault_flags[k][i] else los_cn0).append(m.cn0)
    assert np.mean(los_cn0) - np.mean(nlos_cn0) > 5.0


def test_determinism_and_seed_sensitivity():
    cfg = ScenarioConfig(profile="suburban", seed=9, duration_s=4.0)
    e1, _ = generate_session(cfg)
    e2, _ = generate_session(cfg)
    for a, b in zip(e1, e2):
        assert a.n == b.n
        for ma, mb in zip(a.measurements, b.measurements):
            assert ma.pseudorange == mb.pseudorange
            assert ma.cn0 == mb.cn0
    e3, _ = generate_session(ScenarioConfig(profile="suburban", seed=10, duration_s=4.0))
    assert any(
        ma.pseudorange != mb.pseudorange
        for a, b in zip(e1, e3)
        for ma, mb in zip(a.measurements, b.measurements)
        if ma.key == mb.key
    )


def test_lock_time_resets_on_visibility_loss(quiet):
    cfg = _quiet_cfg(seed=13, duration_s=240.0, rate_hz=1.0)
    epochs, _ = generate_session(cfg)
    seen = {}
    checked_reset = 0
    for epoch in epochs:
        present = set()
        for m in epoch.measurements:
            present.add(m.key)
            if m.key in seen:
                last_t, last_lock = seen[m.key]
                if epoch.time - last_t == 1.0:
                    assert m.lock_time == pytest.approx(last_lock + 1.0)
            else:
                assert m.lock_time == 0.0
                checked_reset += 1
            seen[m.key] = (epoch.time, m.lock_time)
        for key in [k for k in seen if k not in present]:
            del seen[key]
    assert checked_reset >= len(epochs[0].measurements)


def test_campaign_split_arithmetic():
    ds = generate_campaign(
        PROFILES, sessions_per_profile=5, seed=21, epochs_per_session=10
    )
    assert len(ds.sessions) == 15
    for profile in PROFILES:
        subset = [s for s in ds.sessions if s.profile == profile]
        counts = {sp: sum(1 for s in subset if s.split == sp) for sp in ("train", "val", "test")}
        assert counts == {"train": 3, "val": 1, "test": 1}
    ids = [s.session_id for s in ds.sessions]
    assert len(set(ids)) == len(ids)
    # sessions differ between profiles and copies of the same profile
    a, b = ds.sessions[0], ds.sessions[1]
    assert a.epochs[0].measurements[0].pseudorange != b.epochs[0].measurements[0].pseudorange


@pytest.mark.parametrize("sv_counts, match", [
    ({"GPS": 20}, "key 'GPS'"),
    ({ConstellationId.GPS: 20, 7: 4}, "key 7"),
    ({True: 20}, "key True"),
    ({0: -5, 1: 30}, "-5 is not a nonnegative integer"),
    ({ConstellationId.GPS: 20.0}, "20.0 is not"),
    ({ConstellationId.GPS: True, ConstellationId.GALILEO: 20}, "True is not"),
])
def test_sv_counts_are_constellations_and_nonnegative_counts(sv_counts, match):
    # a string key used to fail deep in the orbit set-up with a bare
    # KeyError, and a negative count to pass as no satellites
    with pytest.raises(ConfigInvalid, match=match):
        generate_campaign(["open_sky"], 3, 1, epochs_per_session=2, sv_counts=sv_counts)


def test_sv_counts_by_constellation_value_draw_the_same_campaign():
    named = {ConstellationId.GPS: 10, ConstellationId.GALILEO: 8, ConstellationId.GLONASS: 0}
    a, b = (generate_campaign(["open_sky"], 3, 5, epochs_per_session=3, sv_counts=sv)
            for sv in (named, {int(c): n for c, n in named.items()}))
    for sa, sb in zip(a.sessions, b.sessions, strict=True):
        for ea, eb in zip(sa.epochs, sb.epochs, strict=True):
            assert [(m.key, m.pseudorange, m.cn0) for m in ea.measurements] == \
                [(m.key, m.pseudorange, m.cn0) for m in eb.measurements]


def _reference_orbit_basis(normal):
    ref = np.array([1.0, 0.0, 0.0])
    if abs(normal @ ref) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    u = np.cross(normal, ref)
    u /= np.linalg.norm(u)
    return u, np.cross(normal, u)


@pytest.mark.bitwise
def test_orbit_basis_is_bitwise_np_cross():
    # the stacked bases reproduce the per-normal np.cross and np.linalg.norm
    # bit for bit, signed zeros included, for normals on either reference axis
    rng = np.random.default_rng(9)
    normals = rng.normal(size=(4000, 3))
    normals[:1000, 1:] *= 0.1  # near the x axis: these take [0, 1, 0]
    normals[1000:1100] = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]] * 25)
    normals = np.array([normal / np.linalg.norm(normal) for normal in normals])
    got_u, got_v = sim._orbit_basis(normals)
    refs = 0
    for normal, gu, gv in zip(normals, got_u, got_v):
        refs += abs(normal[0]) > 0.9
        u, v = _reference_orbit_basis(normal)
        assert (gu.tobytes(), gv.tobytes()) == (u.tobytes(), v.tobytes()), normal
    assert 1000 <= refs < 4000


def _reference_position(cfg: ScenarioConfig, t):
    """The receiver at time ``t``: piecewise linear between the waypoints in
    ECEF, one segment per equal share of the session, as numpy arrays."""
    pts = [geodetic_to_ecef(w).as_array() for w in cfg.waypoints]
    seg_T = cfg.duration_s / (len(pts) - 1)
    s = min(int(t / seg_T), len(pts) - 2)
    return pts[s] + (t - s * seg_T) / seg_T * (pts[s + 1] - pts[s])


def _reference_generate_session(cfg: ScenarioConfig, session_id: str = "s000"):
    """Reference simulator: one orbit, position, look angle and range per
    satellite, where ``generate_session`` computes each as a stack, and its
    own receiver trajectory."""
    rng = np.random.default_rng(cfg.seed)
    dt = 1.0 / cfg.rate_hz
    n_epochs = int(round(cfg.duration_s * cfg.rate_hz))
    times = np.arange(n_epochs) * dt
    orbits = []
    for const, count in sorted(cfg.sv_counts.items()):
        for sv in range(1, count + 1):
            normal = rng.normal(size=3)
            normal /= np.linalg.norm(normal)
            u, v = _reference_orbit_basis(normal)
            orbits.append((const, sv, u, v, rng.uniform(0.0, 2.0 * math.pi)))

    consts = sorted(cfg.sv_counts.keys())
    clock = {c: float(rng.uniform(-sim.CLOCK_INIT_SPAN_S, sim.CLOCK_INIT_SPAN_S)) for c in consts}
    lock_time: dict = {}
    epochs = []
    truth = SessionTruth()
    for t in times:
        rx = EcefPosition(*_reference_position(cfg, t).tolist())
        rx_geo = ecef_to_geodetic(rx)
        for c in consts:
            clock[c] += float(rng.normal(0.0, sim.CLOCK_WALK_SIGMA_S))
        raw = []
        for const, sv, u, v, phase in orbits:
            psi = phase + 2.0 * math.pi * float(t) / ORBIT_PERIOD_S[const]
            sat_arr = SHELL_RADIUS_M[const] * (math.cos(psi) * u + math.sin(psi) * v)
            sat = EcefPosition(*sat_arr.tolist())
            elev, _ = reference_elevation_azimuth(sat, rx_geo)
            key = (const, sv)
            if elev < sim.ELEVATION_MASK:
                lock_time.pop(key, None)
                continue
            lt = lock_time.get(key, -dt) + dt
            lock_time[key] = lt

            p_nlos = nlos_probability(sorted(sim._NLOS_CURVES[cfg.profile]), elev)
            is_nlos = bool(rng.random() < p_nlos)
            bias = float(rng.exponential(cfg.nlos_bias_mean_m)) if is_nlos else 0.0
            sigma = cfg.noise_sigma_m / max(math.sin(elev), math.sin(sim.ELEVATION_MASK))
            noise = float(rng.normal(0.0, sigma)) if cfg.noise_sigma_m > 0 else 0.0
            rng_m = float(np.linalg.norm(rx.as_array() - sat.as_array()))
            pr = rng_m + SPEED_OF_LIGHT * clock[const] + noise + bias

            cn0_sigma2 = sim.CN0_NOISE_SIGMA_DB**2
            if cfg.profile == "urban_canyon":
                cn0_sigma2 += sim.MP_CN0_VAR_INFLATION_DB2
            cn0 = (
                sim.CN0_BASE_DBHZ
                - sim.CN0_ELEV_LOSS_DB * (1.0 - math.sin(elev))
                - (sim.NLOS_CN0_PENALTY_DB if is_nlos else 0.0)
                + (float(rng.normal(0.0, math.sqrt(cn0_sigma2))) if cn0_sigma2 > 0 else 0.0)
            )
            cn0 = float(np.clip(cn0, 0.0, 60.0))
            m = PseudorangeMeasurement(
                constellation=const, sv_id=sv, band=Band.L1, pseudorange=pr,
                sat_pos=sat, cn0=cn0, lock_time=lt,
            )
            raw.append((m, is_nlos, bias))
        raw.sort(key=lambda item: item[0].key)
        epochs.append(
            Epoch(time=float(t), measurements=[m for m, _, _ in raw], truth=rx, session_id=session_id)
        )
        truth.fault_flags.append([f for _, f, _ in raw])
        truth.fault_biases.append([b for _, _, b in raw])
    return epochs, truth


_DENSE_SKY = {  # the dense_sky_fix benchmark's sky, BeiDou included
    ConstellationId.GPS: 14,
    ConstellationId.GALILEO: 13,
    ConstellationId.GLONASS: 13,
    ConstellationId.BEIDOU: 14,
}


# one session of the dense_sky_fix benchmark's stream (open sky, two epochs)
# and one of urban_pipeline's campaign (urban canyon, one epoch), each on
# generate_campaign's jittered waypoints
_JITTERED = sim._jitter_waypoints(sim._DEFAULT_WAYPOINTS, np.random.default_rng(602))


@pytest.mark.bitwise
@pytest.mark.parametrize(
    "cfg",
    [
        ScenarioConfig(profile="open_sky", seed=601, duration_s=20.0),
        ScenarioConfig(profile="suburban", seed=811, duration_s=20.0),
        ScenarioConfig(profile="urban_canyon", seed=7, duration_s=20.0),
        ScenarioConfig(profile="urban_canyon", seed=31, duration_s=10.0, sv_counts=_DENSE_SKY),
        ScenarioConfig(profile="suburban", seed=32, duration_s=10.0, noise_sigma_m=0.0),
        # crosses the elevation mask, so lock times reset
        ScenarioConfig(profile="open_sky", seed=13, duration_s=240.0, rate_hz=1.0),
        ScenarioConfig(profile="open_sky", seed=603, duration_s=0.4, sv_counts=_DENSE_SKY, waypoints=_JITTERED),
        ScenarioConfig(profile="urban_canyon", seed=604, duration_s=0.2, waypoints=_JITTERED),
    ],
    ids=["open_sky", "suburban", "urban_canyon", "dense_sky", "noise_free", "mask_crossing",
         "dense_stream_2_epochs", "urban_1_epoch"],
)
def test_session_matches_per_satellite_reference(cfg):
    epochs, truth = generate_session(cfg, "s1")
    ref_epochs, ref_truth = _reference_generate_session(cfg, "s1")
    assert len(epochs) == len(ref_epochs)
    # repr spells every float exactly, signed zeros included
    for k, (e, r) in enumerate(zip(epochs, ref_epochs)):
        assert (e.time, e.session_id, repr(e.truth)) == (r.time, r.session_id, repr(r.truth)), k
        assert [repr(m) for m in e.measurements] == [repr(m) for m in r.measurements], k
    assert truth.fault_flags == ref_truth.fault_flags
    assert repr(truth.fault_biases) == repr(ref_truth.fault_biases)
    if cfg.duration_s == 240.0:
        # some link leaves the mask and a link enters it after the first epoch
        keys = [{m.key for m in e.measurements} for e in epochs]
        assert any(a - b for a, b in zip(keys, keys[1:]))
        assert any(m.lock_time == 0.0 for e in epochs[1:] for m in e.measurements)
