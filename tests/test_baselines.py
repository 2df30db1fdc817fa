import math

import numpy as np
import pytest

from gnssweight.baselines import (
    DEFAULT_ELEVATION_MASK,
    FdeConfig,
    SotaWeightParams,
    calibrate_sota,
    cn0_linear,
    fde_solve,
    sota_sigma2,
    sota_weights,
)
from gnssweight.errors import EmptySplit, HorizonSingularity, NotEnoughMeasurements
from conftest import make_epoch


def test_cn0_linear():
    assert cn0_linear(0.0) == pytest.approx(1.0)
    assert cn0_linear(10.0) == pytest.approx(10.0)
    assert cn0_linear(45.0) == pytest.approx(10.0**4.5)


def test_sigma2_zenith_trivial():
    p = SotaWeightParams(sigma_z2=4.0, sigma_c2=0.0)
    assert sota_sigma2(math.pi / 2, 45.0, p) == pytest.approx(4.0)


def test_sigma2_elevation_scaling():
    # sin(30 deg) = 1/2, so the variance quadruples versus zenith
    p = SotaWeightParams(sigma_z2=1.0, sigma_c2=0.0)
    assert sota_sigma2(math.radians(30.0), 45.0, p) == pytest.approx(4.0)


def test_sigma2_term_composition():
    p = SotaWeightParams(sigma_z2=1.0, sigma_c2=100.0)
    got = sota_sigma2(math.pi / 2, 10.0, p)
    assert got == pytest.approx(1.0 + 100.0 / 10.0)


def test_sigma2_monotone_in_elevation_and_cn0():
    p = SotaWeightParams(sigma_z2=1.0, sigma_c2=1e4)
    thetas = np.linspace(math.radians(6), math.pi / 2, 50)
    s = [sota_sigma2(t, 40.0, p) for t in thetas]
    assert all(a >= b for a, b in zip(s, s[1:]))
    cn0s = np.linspace(20, 55, 50)
    s = [sota_sigma2(math.pi / 4, c, p) for c in cn0s]
    assert all(a >= b for a, b in zip(s, s[1:]))


def test_horizon_guard():
    p = SotaWeightParams(1.0, 0.0)
    with pytest.raises(HorizonSingularity):
        sota_sigma2(DEFAULT_ELEVATION_MASK, 45.0, p)
    w = sota_weights([DEFAULT_ELEVATION_MASK / 2, math.pi / 4], [45.0, 45.0], p)
    assert w[0] == 0.0
    assert w[1] > 0.0


def test_calibration_recovers_known_model():
    rng = np.random.default_rng(2)
    truth = SotaWeightParams(sigma_z2=0.8, sigma_c2=3e4)
    n = 60_000
    thetas = rng.uniform(math.radians(10), math.radians(88), n)
    cn0s = rng.uniform(25, 55, n)
    sig = np.array([math.sqrt(sota_sigma2(t, c, truth)) for t, c in zip(thetas, cn0s)])
    errors = rng.normal(0, sig)
    est = calibrate_sota(thetas, cn0s, errors)
    # weights from the fitted model reproduce the generating weights
    probe_t = rng.uniform(math.radians(15), math.radians(80), 200)
    probe_c = rng.uniform(28, 52, 200)
    w_true = sota_weights(probe_t, probe_c, truth)
    w_est = sota_weights(probe_t, probe_c, est)
    ratio = w_est / w_true
    assert np.median(np.abs(ratio - 1.0)) < 0.25


def test_calibration_is_outlier_robust():
    rng = np.random.default_rng(3)
    n = 40_000
    thetas = rng.uniform(math.radians(10), math.radians(88), n)
    cn0s = rng.uniform(25, 55, n)
    sig = 1.0 / np.sin(thetas)
    errors = rng.normal(0, sig)
    # 15 percent gross faults shift the median quantile slightly (a factor
    # around 1.5 here) where a mean-of-squares fit would inflate by ~250x
    faulty = rng.random(n) < 0.15
    errors[faulty] += rng.exponential(30.0, int(faulty.sum()))
    est = calibrate_sota(thetas, cn0s, errors)
    assert 0.5 < est.sigma_z2 < 3.0
    mean_based = float(np.mean((errors * np.sin(thetas)) ** 2))
    assert mean_based > 50.0


def test_calibration_rejects_empty_input():
    with pytest.raises(EmptySplit):
        calibrate_sota([], [], [])


def _bland_params():
    return SotaWeightParams(sigma_z2=1.0, sigma_c2=0.0)


def test_fde_noise_free_excludes_nothing(rng):
    for _ in range(10):
        epoch, truth = make_epoch(rng, n=10)
        res = fde_solve(epoch, FdeConfig(), _bland_params())
        assert res.excluded == []
        err = np.linalg.norm(
            res.report.state.position.as_array() - truth.position.as_array()
        )
        assert err < 1e-6


def test_fde_flags_single_large_fault(rng):
    hits = 0
    trials = 50
    for _ in range(trials):
        epoch, truth = make_epoch(rng, n=12, noise_sigma=1.0, biases={5: 80.0})
        idx = next(i for i, m in enumerate(epoch.measurements) if m.sv_id == 6)
        res = fde_solve(epoch, FdeConfig(noise_sigma_m=1.0), _bland_params())
        if res.excluded == [idx]:
            hits += 1
    assert hits >= int(0.9 * trials)


def test_fde_respects_retention_floor(rng):
    epoch, _ = make_epoch(rng, n=7, noise_sigma=1.0, biases={0: 50.0, 3: 60.0})
    res = fde_solve(epoch, FdeConfig(min_retained=6), _bland_params())
    assert len(res.excluded) <= 1
    assert 7 - len(res.excluded) >= 6


def test_fde_minimum_input_size(rng):
    epoch, _ = make_epoch(rng, n=6)
    with pytest.raises(NotEnoughMeasurements):
        fde_solve(epoch, FdeConfig(min_retained=6), _bland_params())


def test_fde_idempotent_after_exclusion(rng):
    from gnssweight.model import Epoch

    epoch, _ = make_epoch(rng, n=12, noise_sigma=1.0, biases={5: 80.0})
    res = fde_solve(epoch, FdeConfig(), _bland_params())
    assert len(res.excluded) >= 1
    cleaned = Epoch(
        time=epoch.time,
        measurements=[m for i, m in enumerate(epoch.measurements) if i not in res.excluded],
    )
    res2 = fde_solve(cleaned, FdeConfig(), _bland_params())
    assert res2.excluded == []
    d = np.linalg.norm(
        res.report.state.position.as_array() - res2.report.state.position.as_array()
    )
    assert d < 1e-6


def _assert_same_fde(a, b):
    assert a.excluded == b.excluded
    ra, rb = a.report, b.report
    assert ra.state.position.as_array().tobytes() == rb.state.position.as_array().tobytes()
    assert ra.state.clock_bias == rb.state.clock_bias
    assert (ra.iterations, ra.converged, ra.final_cost) == (rb.iterations, rb.converged, rb.final_cost)
    assert ra.post_fit_residuals.tobytes() == rb.post_fit_residuals.tobytes()


def test_fde_round_from_loo_matrix_is_bitwise(rng, monkeypatch):
    """The first exclusion round taken from the leave-one-out batch gives
    FDE the bits of the round it would solve itself, and saves that solve."""
    from gnssweight import baselines
    from gnssweight.residuals import build_residual_matrix, rows_fix, solve_rows

    calls = []
    fix_solve = baselines.equal_weight_fix

    def counting(epoch, active=None):
        calls.append(active is not None)
        return fix_solve(epoch, active)

    monkeypatch.setattr(baselines, "equal_weight_fix", counting)
    taken = 0
    for k in range(20):
        biases = {5: 80.0, 9: -60.0} if k % 2 else {5: 80.0}
        epoch, _ = make_epoch(rng, n=12, noise_sigma=1.0, biases=biases)
        rows = solve_rows([epoch])[0]
        M, fix = build_residual_matrix(epoch, rows), rows_fix(epoch, rows)
        cfg = FdeConfig(noise_sigma_m=1.0)
        calls.clear()
        plain = fde_solve(epoch, cfg, _bland_params(), fix=fix)
        rounds = len(calls)
        calls.clear()
        fast = fde_solve(epoch, cfg, _bland_params(), fix=fix, loo=M)
        _assert_same_fde(fast, plain)
        if plain.excluded:
            assert M.row(plain.excluded[0]) is not None
            assert len(calls) == rounds - 1
            taken += 1
    assert taken >= 15


def test_fde_one_link_constellation_round_is_solved(rng):
    """When the first excluded link is its constellation's only link, the
    leave-one-out row solved without that clock cannot stand in for the
    round: FDE solves it and fails as it does without the matrix."""
    from dataclasses import replace

    from gnssweight.errors import SingularGeometry
    from gnssweight.model import ConstellationId, Epoch, PseudorangeMeasurement
    from gnssweight.residuals import build_residual_matrix, rows_fix, solve_rows

    epoch, _ = make_epoch(rng, n=11, constellations=(ConstellationId.GPS,), noise_sigma=1.0)
    base = epoch.measurements[0]
    one = PseudorangeMeasurement(ConstellationId.GALILEO, 30, base.band, base.pseudorange + 5.0,
                                 epoch.measurements[3].sat_pos, 40.0, 1.0)
    epoch = Epoch(time=0.0, measurements=[*epoch.measurements, one], truth=epoch.truth)
    link = next(i for i, m in enumerate(epoch.measurements) if m.constellation == ConstellationId.GALILEO)
    rows = solve_rows([epoch])[0]
    M, fix = build_residual_matrix(epoch, rows), rows_fix(epoch, rows)
    assert M.row(link) is None
    # the link's own clock absorbs its residual, so a fix whose residual
    # there is large is what makes FDE exclude it first
    r = fix.post_fit_residuals.copy()
    r[link] = 1e3
    fix = replace(fix, post_fit_residuals=r)
    for loo in (None, M):
        with pytest.raises(SingularGeometry):
            fde_solve(epoch, FdeConfig(noise_sigma_m=1.0), _bland_params(), fix=fix, loo=loo)
