import math

import numpy as np
import pytest

from gnssweight import sim
from gnssweight.errors import ConfigInvalid
from gnssweight.geo import SPEED_OF_LIGHT, ecef_to_geodetic, elevation_azimuth
from gnssweight.model import ConstellationId
from gnssweight.nn import truth_clock_biases
from gnssweight.sim import (
    PROFILES,
    SHELL_RADIUS_M,
    ScenarioConfig,
    generate_campaign,
    generate_session,
    nlos_probability,
    profile_config,
)


def _quiet_cfg(seed=0, **kw):
    base = dict(
        seed=seed,
        duration_s=4.0,
        rate_hz=5.0,
        noise_sigma_m=0.0,
        nlos_prob_curve=((math.radians(5.0), 0.0), (math.radians(90.0), 0.0)),
        profile="open_sky",
    )
    base.update(kw)
    return ScenarioConfig(**base)


@pytest.fixture
def quiet(monkeypatch):
    """No C/N0 noise and no receiver clock walk in the sessions a test generates."""
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
        _quiet_cfg(nlos_prob_curve=((0.1, 1.5),)).validate()
    with pytest.raises(ConfigInvalid):
        _quiet_cfg(sv_counts={ConstellationId.GPS: 4}).validate()


def test_noise_free_session_is_self_consistent(quiet):
    """Every pseudorange must equal range + c*clock exactly as constructed."""
    epochs, truth = generate_session(_quiet_cfg(seed=3))
    assert len(epochs) == 20
    for k, epoch in enumerate(epochs):
        assert epoch.truth is not None
        assert epoch.truth.as_array() == pytest.approx(truth.positions[k].as_array())
        clocks = truth_clock_biases(epoch)
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
    epochs, truth = generate_session(cfg)
    for k, epoch in enumerate(epochs):
        assert epoch.n >= 6
        ref = ecef_to_geodetic(truth.positions[k])
        for m in epoch.measurements:
            elev, _ = elevation_azimuth(m.sat_pos, ref)
            assert elev >= sim.ELEVATION_MASK - 1e-9


def test_fault_bookkeeping_matches_bias_construction(quiet):
    cfg = profile_config("urban_canyon", seed=11, duration_s=20.0, noise_sigma_m=0.0)
    epochs, truth = generate_session(cfg)
    n_flagged = 0
    for k, epoch in enumerate(epochs):
        clocks = truth_clock_biases(epoch)
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
    assert truth.epochs_with_fault() > 0


def test_nlos_rate_tracks_curve(quiet):
    p_flat = 0.25
    cfg = _quiet_cfg(
        seed=5,
        duration_s=60.0,
        nlos_prob_curve=((math.radians(5.0), p_flat), (math.radians(90.0), p_flat)),
        nlos_bias_mean_m=30.0,
    )
    _, truth = generate_session(cfg)
    flags = [f for flags in truth.fault_flags for f in flags]
    rate = np.mean(flags)
    assert rate == pytest.approx(p_flat, abs=0.02)


def test_nlos_depresses_cn0():
    cfg = profile_config("urban_canyon", seed=6, duration_s=40.0, noise_sigma_m=0.0)
    epochs, truth = generate_session(cfg)
    nlos_cn0, los_cn0 = [], []
    for k, epoch in enumerate(epochs):
        for i, m in enumerate(epoch.measurements):
            (nlos_cn0 if truth.fault_flags[k][i] else los_cn0).append(m.cn0)
    assert np.mean(los_cn0) - np.mean(nlos_cn0) > 5.0


def test_determinism_and_seed_sensitivity():
    cfg = profile_config("suburban", seed=9, duration_s=4.0)
    e1, _ = generate_session(cfg)
    e2, _ = generate_session(cfg)
    for a, b in zip(e1, e2):
        assert a.n == b.n
        for ma, mb in zip(a.measurements, b.measurements):
            assert ma.pseudorange == mb.pseudorange
            assert ma.cn0 == mb.cn0
    e3, _ = generate_session(profile_config("suburban", seed=10, duration_s=4.0))
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


def test_campaign_minimum_sessions():
    with pytest.raises(ConfigInvalid):
        generate_campaign(PROFILES, sessions_per_profile=2, seed=0)


def test_orbit_basis_is_bitwise_np_cross():
    # the written-out cross products reproduce np.cross bit for bit,
    # signed zeros included, for normals on either reference axis
    rng = np.random.default_rng(9)
    normals = rng.normal(size=(4000, 3))
    normals[:1000, 1:] *= 0.1  # near the x axis: these take [0, 1, 0]
    normals[1000:1100] = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]] * 25)
    refs = 0
    for normal in normals:
        normal = normal / np.linalg.norm(normal)
        ref = np.array([1.0, 0.0, 0.0])
        if abs(normal @ ref) > 0.9:
            ref = np.array([0.0, 1.0, 0.0])
            refs += 1
        u = np.cross(normal, ref)
        u /= np.linalg.norm(u)
        v = np.cross(normal, u)
        got_u, got_v = sim._orbit_basis(normal)
        assert (got_u.tobytes(), got_v.tobytes()) == (u.tobytes(), v.tobytes()), normal
    assert 1000 <= refs < 4000
