import math
from collections import Counter

import numpy as np
import pytest

from gnssweight.baselines import (
    DEFAULT_ELEVATION_MASK,
    FdeConfig,
    SotaWeightParams,
    _nnls2,
    calibrate_sota,
    cn0_linear,
    fde_solve,
    sota_sigma2,
    sota_weights,
)
from gnssweight.cli import _calibration_samples
from gnssweight.errors import EmptySplit, HorizonSingularity, NotEnoughMeasurements
from gnssweight.sim import generate_campaign
from conftest import make_epoch, reference_fix


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
    # samples, but no bin holding the five a variance needs
    with pytest.raises(EmptySplit, match="populated bins"):
        calibrate_sota([0.5] * 4, [40.0] * 4, [1.0] * 4)


# Calibration-shaped systems: rows [1, mean 1/cn0] scaled by sqrt(count).
_W = np.sqrt([40.0, 25.0, 60.0, 10.0])
_A = _W[:, None] * np.array([[1.0, 1e-4], [1.0, 3e-4], [1.0, 6e-4], [1.0, 1e-3]])


@pytest.mark.parametrize(
    "a, b, zero",
    [
        pytest.param(_A, _A @ [2.0, 3e4] + _W * [0.3, -0.2, 0.1, -0.4], [False, False], id="neither-clamps"),
        pytest.param(_A, _A @ [-2.0, 3e4], [True, False], id="z-clamps"),
        pytest.param(_A, _A @ [30.0, -1e4], [False, True], id="c-clamps"),
        pytest.param(_A, -(_A @ [2.0, 3e4]), [True, True], id="both-clamp"),
        pytest.param(_A[:1], np.array([_W[0] * 7.0]), [False, False], id="one-bin"),
        pytest.param(_W[:, None] * [1.0, 4e-4], _W * [5.0, 6.0, 7.0, 8.0], [False, False], id="equal-cn0"),
    ],
)
def test_two_coefficient_nnls_meets_kkt(a, b, zero):
    """The fit is optimal for x >= 0: with g = A^T (A x - b), g_j = 0 where
    x_j > 0 and g_j >= 0 where x_j = 0 (Karush-Kuhn-Tucker)."""
    x = _nnls2(a, b)
    g = a.T @ (a @ x - b)
    tol = 1e-12 * np.linalg.norm(a, axis=0) * np.linalg.norm(b)
    assert list(x == 0.0) == zero, x
    assert np.all(x >= 0.0)
    assert np.all(np.where(x > 0.0, np.abs(g) <= tol, g >= -tol)), (x, g, tol)


def test_calibration_coefficients_on_urban_campaign():
    """Seed 601 of the 180 x 1 urban campaign: the coefficients of a general
    nonnegative least-squares solver (Lawson-Hanson), to 2e-15 relative."""
    dataset = generate_campaign(["urban_canyon"], 180, 601, epochs_per_session=1)
    p = calibrate_sota(*_calibration_samples(dataset))
    assert p.sigma_z2 == pytest.approx(18.59950042341215, rel=2e-15, abs=0.0)
    assert p.sigma_c2 == pytest.approx(44201.70740195472, rel=2e-15, abs=0.0)


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


def _reference_fde(epoch, cfg, params, fix=None):
    """FDE as one epoch's own loop of single solves, each round an
    ``reference_fix`` and the final solve a ``solve_wls``: the reference
    that ``fde_run`` matches bit for bit."""
    from gnssweight.baselines import FdeResult
    from gnssweight.errors import NonConvergence
    from gnssweight.geo import ecef_to_geodetic, elevation_angles
    from gnssweight.solver import jacobian, solve_wls

    n = epoch.n
    min_keep = max(cfg.min_retained, epoch.state_dim())
    if n < min_keep + 1:
        raise NotEnoughMeasurements(f"N={n} below min retained {min_keep} + 1")
    active = np.ones(n, dtype=bool)
    excluded = []
    rep = fix if fix is not None else reference_fix(epoch)
    while True:
        state = rep.state
        if int(active.sum()) <= min_keep or len(excluded) >= cfg.max_exclusions:
            break
        H = jacobian(state, epoch)[active]
        hat = H @ np.linalg.solve(H.T @ H, H.T)
        lev = np.clip(np.diag(hat), 0.0, 1.0 - 1e-6)
        r = rep.post_fit_residuals[active]
        std = r / (cfg.noise_sigma_m * np.sqrt(1.0 - lev))
        worst = int(np.argmax(np.abs(std)))
        if abs(std[worst]) <= cfg.threshold:
            break
        active_idx = np.flatnonzero(active)
        excluded.append(int(active_idx[worst]))
        active[active_idx[worst]] = False
        rep = reference_fix(epoch, active)

    survivors = [epoch.measurements[i] for i in np.flatnonzero(active)]
    thetas = elevation_angles(epoch.sat_array()[active], ecef_to_geodetic(state.position))
    w = np.zeros(n)
    w[active] = sota_weights(thetas, [m.cn0 for m in survivors], params)
    if int(np.sum(w > 0)) < epoch.state_dim():
        w = active.astype(float)
    try:
        final = solve_wls(epoch, w, init=state)
    except NonConvergence as e:
        final = e.report
    return FdeResult(report=final, excluded=sorted(excluded))


def _one_link_constellation_epoch(rng):
    """A GPS epoch plus one Galileo link, and a fix whose large residual
    on that link makes FDE exclude it first. The link's own clock absorbs
    its residual, so no real fix would; without the link that clock has
    no measurement, and the round's normal matrix is singular."""
    from dataclasses import replace

    from gnssweight.model import ConstellationId, Epoch, PseudorangeMeasurement

    epoch, _ = make_epoch(rng, n=11, constellations=(ConstellationId.GPS,), noise_sigma=1.0)
    base = epoch.measurements[0]
    one = PseudorangeMeasurement(ConstellationId.GALILEO, 30, base.band, base.pseudorange + 5.0,
                                 epoch.measurements[3].sat_pos, 40.0, 1.0)
    epoch = Epoch(time=0.0, measurements=[*epoch.measurements, one], truth=epoch.truth)
    link = next(i for i, m in enumerate(epoch.measurements) if m.constellation == ConstellationId.GALILEO)
    fix = reference_fix(epoch)
    r = fix.post_fit_residuals.copy()
    r[link] = 1e3
    return epoch, replace(fix, post_fit_residuals=r)


def test_fde_one_link_constellation_round_is_solved(rng):
    """A round that excludes its constellation's only link is solved with
    that clock column and fails as singular."""
    from gnssweight.errors import SingularGeometry

    epoch, fix = _one_link_constellation_epoch(rng)
    with pytest.raises(SingularGeometry):
        fde_solve(epoch, FdeConfig(noise_sigma_m=1.0), _bland_params(), fix=fix)


@pytest.mark.bitwise
def test_lockstep_fde_matches_per_epoch_loop(rng, monkeypatch):
    """``fde_run``, driven by ``solver.solve_runs`` over one mixed batch,
    gives every epoch the bits, or the error, of its own loop of single
    solves (``_reference_fde``):
    N from d + 1 to 20 over 1-3 constellations with 0-3 faults, fixes given
    and not, the exclusion cap and the retention floor reached, too few
    links, a singular round, and (under a lowered iteration cap) capped
    final solves."""
    from gnssweight import _kernels
    from gnssweight.baselines import fde_run
    from gnssweight.errors import GnssWeightError
    from gnssweight.model import ConstellationId as C
    from gnssweight.solver import solve_runs

    def caught(run):
        """``run``, returning the GnssWeightError it raises instead of ending the drive."""
        try:
            return (yield from run)
        except GnssWeightError as e:
            return e

    cfg = FdeConfig(noise_sigma_m=1.0, max_exclusions=2, min_retained=5)
    skies = ((C.GPS,), (C.GPS, C.GALILEO), (C.GPS, C.GALILEO, C.GLONASS))
    epochs, fixes = [], []
    for k in range(42):
        consts = skies[k % 3]
        n = 4 + len(consts) + k % 14
        faults = rng.choice(n, size=k % 4, replace=False)
        biases = {int(i): float(rng.choice([-1.0, 1.0]) * rng.uniform(30.0, 120.0)) for i in faults}
        epoch, _ = make_epoch(rng, n=n, constellations=consts, noise_sigma=1.0, biases=biases)
        epochs.append(epoch)
        fixes.append(reference_fix(epoch) if k % 2 else None)
    epoch, fix = _one_link_constellation_epoch(rng)
    epochs.append(epoch)
    fixes.append(fix)

    for cap in (_kernels.MAX_ITERATIONS, 2):
        monkeypatch.setattr(_kernels, "MAX_ITERATIONS", cap)
        seen = Counter()
        runs = [caught(fde_run(epoch, cfg, _bland_params(), fix)) for epoch, fix in zip(epochs, fixes)]
        for epoch, fix, got in zip(epochs, fixes, solve_runs(epochs, runs)):
            try:
                want = _reference_fde(epoch, cfg, _bland_params(), fix)
            except GnssWeightError as e:
                assert type(got) is type(e), (got, e)
                seen[type(e).__name__] += 1
                continue
            _assert_same_fde(got, want)
            d = epoch.state_dim()
            seen["fix given" if fix is not None else "fix solved"] += 1
            seen["d + 1 links"] += epoch.n == d + 1
            seen["exclusion cap"] += len(got.excluded) == cfg.max_exclusions
            seen["retention floor"] += bool(got.excluded) and epoch.n - len(got.excluded) == max(cfg.min_retained, d)
            seen["capped final"] += not got.report.converged
        assert seen["NotEnoughMeasurements"] >= 1 and seen["SingularGeometry"] >= 1, seen
        for case in ("fix given", "fix solved", "d + 1 links", "exclusion cap", "retention floor"):
            assert seen[case] >= 1, (case, seen)
    assert seen["capped final"] >= 1, seen
