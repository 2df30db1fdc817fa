"""End-to-end acceptance checks.

Each test prints one PASS line once its assertions hold, so a verbose run
reads as a checklist. The campaign-level tests share one module-scoped
pipeline (simulate, featurize, train both models, calibrate, evaluate)
whose total runtime is itself under test.
"""

import math
import time

import numpy as np
import pytest

from gnssweight.baselines import FdeConfig, SotaWeightParams, calibrate_sota, fde_solve, sota_sigma2
from gnssweight.evaluation import (
    StrategyModels,
    compare_strategies,
    empirical_quantile,
    position_errors,
)
from gnssweight.featurize import dataset_samples, fit_normalization, normalized_split
from gnssweight.features import PER_LINK_COLUMNS, VARIANCE_SENTINEL, WINDOW_CAPACITY, TrackingHistory
from gnssweight.geo import (
    SPEED_OF_LIGHT,
    EcefPosition,
    GeodeticPosition,
    ecef_to_enu,
    ecef_to_geodetic,
    geodetic_to_ecef,
)
from gnssweight.model import Band, ConstellationId, Epoch, NavState, PseudorangeMeasurement
from gnssweight.nn import (
    LABEL_EPSILON_M,
    LstmModel,
    TrainConfig,
    lstm_backward,
    lstm_forward,
    make_labels,
    quality_to_weights,
    train,
    truth_residuals,
)
from gnssweight.residuals import GAMMA, build_residual_matrix, solve_rows
from gnssweight.sim import ScenarioConfig, generate_campaign, generate_session
from gnssweight.solver import jacobian, predicted_pseudoranges, solve_wls, state_to_vector
from conftest import make_epoch, observation_function, reference_elevation_azimuth

_CONSTS = (
    ConstellationId.GPS,
    ConstellationId.GALILEO,
    ConstellationId.GLONASS,
)

_RICH_SKY = {
    ConstellationId.GPS: 12,
    ConstellationId.GALILEO: 10,
    ConstellationId.GLONASS: 10,
}


def _pass(num, msg):
    print(f"PASS {num:02d}: {msg}")


@pytest.fixture(scope="module")
def pipeline():
    """Simulate, featurize, train, calibrate and evaluate one urban campaign."""
    t0 = time.perf_counter()
    dataset = generate_campaign(
        ["urban_canyon"],
        sessions_per_profile=30,
        seed=7,
        epochs_per_session=120,
        rate_hz=5.0,
        sv_counts=_RICH_SKY,
    )
    splits = dataset_samples(dataset)

    models = {}
    for mode in ("full", "residual"):
        norm = fit_normalization(splits["train"], mode)
        cfg = TrainConfig(
            learning_rate=3e-3,
            batch_size=16,
            max_epochs=30,
            patience=6,
            seed=0,
            hidden=32,
            feature_mode=mode,
        )
        model, report = train(
            normalized_split(splits["train"], norm, mode),
            normalized_split(splits["val"], norm, mode),
            cfg,
        )
        models[mode] = (model, norm, report)

    thetas, cn0s, errors = [], [], []
    for session in dataset.split_sessions("train"):
        for epoch in session.epochs:
            rx_geo = ecef_to_geodetic(epoch.truth)
            clocks = dict(zip(epoch.constellations(), truth_residuals(epoch)[1] / SPEED_OF_LIGHT))
            rng_m = np.linalg.norm(epoch.truth.as_array()[None, :] - epoch.sat_array(), axis=1)
            errs = epoch.pr_array() - rng_m - SPEED_OF_LIGHT * np.array(
                [clocks[m.constellation] for m in epoch.measurements]
            )
            for m, e in zip(epoch.measurements, errs):
                theta, _ = reference_elevation_azimuth(m.sat_pos, rx_geo)
                thetas.append(theta)
                cn0s.append(m.cn0)
                errors.append(e)
    sota = calibrate_sota(thetas, cn0s, errors)

    strategy_models = StrategyModels(
        nn_full=models["full"][:2],
        nn_residual=models["residual"][:2],
        sota=sota,
        fde_cfg=FdeConfig(),
    )
    records, summaries = compare_strategies(
        dataset,
        ("truth", "nn_full", "nn_residual", "fde_sota", "equal"),
        strategy_models,
    )
    elapsed = time.perf_counter() - t0
    return {
        "dataset": dataset,
        "splits": splits,
        "models": models,
        "sota": sota,
        "records": records,
        "summaries": summaries,
        "elapsed_s": elapsed,
    }


def test_criterion_01_solver_exactness_and_speed(rng):
    solve_wls(make_epoch(rng, n=8)[0], np.ones(8))  # first call outside the timing
    n_cases = 1000
    total = 0.0
    for k in range(n_cases):
        n_const = 1 + k % 3
        n = int(rng.integers(max(6, 3 + n_const), 21))
        epoch, truth = make_epoch(rng, n=n, constellations=_CONSTS[:n_const])
        w = np.ones(n)
        t0 = time.perf_counter()
        rep = solve_wls(epoch, w)
        total += time.perf_counter() - t0
        assert rep.converged
        err = np.linalg.norm(rep.state.position.as_array() - truth.position.as_array())
        assert err < 1e-6
        for c, b in truth.clock_bias.items():
            assert abs(rep.state.clock_bias[c] - b) < 1e-12
    per_epoch_ms = total / n_cases * 1e3
    assert per_epoch_ms < 5.0
    _pass(1, f"1000/1000 noise-free cold starts < 1e-6 m, < 1e-12 s; {per_epoch_ms:.2f} ms/epoch")


def test_criterion_02_jacobian_finite_differences(rng):
    probes = 0
    worst = 0.0
    h_pos = 1.0  # meters; curvature ~1/range makes truncation negligible
    h_clk = 1e-6  # seconds; the Jacobian's clock columns are per meter (c * delta)
    while probes < 1000:
        epoch, truth = make_epoch(rng, n=8, constellations=_CONSTS[: 1 + probes % 3])
        J = jacobian(truth, epoch)
        consts = epoch.constellations()
        for i, m in enumerate(epoch.measurements):
            base = truth.position.as_array()
            for axis in range(3):
                step = np.zeros(3)
                step[axis] = h_pos
                fp = observation_function(NavState(EcefPosition(*(base + step)), truth.clock_bias), m)
                fm_ = observation_function(NavState(EcefPosition(*(base - step)), truth.clock_bias), m)
                fd = (fp - fm_) / (2 * h_pos)
                # position rows are unit vectors, so scale-relative == absolute
                worst = max(worst, abs(fd - J[i, axis]) / max(abs(J[i, axis]), 1.0))
                probes += 1
            k = consts.index(m.constellation)
            bp, bm = dict(truth.clock_bias), dict(truth.clock_bias)
            bp[m.constellation] += h_clk
            bm[m.constellation] -= h_clk
            fd = (
                observation_function(NavState(truth.position, bp), m)
                - observation_function(NavState(truth.position, bm), m)
            ) / (2 * h_clk * SPEED_OF_LIGHT)
            worst = max(worst, abs(fd - J[i, 3 + k]) / abs(J[i, 3 + k]))
            probes += 1
    assert worst < 1e-6
    _pass(2, f"jacobian vs central differences: max relative error {worst:.2e} over {probes} probes")


def test_criterion_03_residual_matrix_equivalence(rng):
    worst_eq = 0.0
    worst_inv = 0.0
    for case in range(100):
        n = int(rng.integers(8, 13))
        epoch, _ = make_epoch(rng, n=n, noise_sigma=2.0)
        M = build_residual_matrix(epoch, solve_rows([epoch])[0])
        assert np.all(np.diag(M.values) == GAMMA)
        for row in range(n):
            sub = Epoch(
                time=epoch.time,
                measurements=[m for i, m in enumerate(epoch.measurements) if i != row],
            )
            rep = solve_wls(sub, np.ones(n - 1))
            expect = epoch.pr_array() - predicted_pseudoranges(
                epoch, state_to_vector(epoch, rep.state)
            )
            mask = np.arange(n) != row
            worst_eq = max(worst_eq, float(np.max(np.abs(M.values[row, mask] - expect[mask]))))
        # row-n invariance to a +-100 m perturbation of measurement n
        if case < 20:
            target = int(rng.integers(0, n))
            for shift in (100.0, -100.0):
                ms = [
                    PseudorangeMeasurement(
                        constellation=m.constellation,
                        sv_id=m.sv_id,
                        band=m.band,
                        pseudorange=m.pseudorange + (shift if i == target else 0.0),
                        sat_pos=m.sat_pos,
                        cn0=m.cn0,
                        lock_time=m.lock_time,
                    )
                    for i, m in enumerate(epoch.measurements)
                ]
                shifted = Epoch(time=epoch.time, measurements=ms)
                M2 = build_residual_matrix(shifted, solve_rows([shifted])[0])
                mask = np.arange(n) != target
                worst_inv = max(
                    worst_inv,
                    float(np.max(np.abs(M2.values[target, mask] - M.values[target, mask]))),
                )
    assert worst_eq < 1e-9
    assert worst_inv < 1e-9
    _pass(3, f"residual matrix: oracle gap {worst_eq:.1e} m, row invariance gap {worst_inv:.1e} m")


def test_criterion_04_lstm_gradient_check():
    rng = np.random.default_rng(99)
    model = LstmModel.init(6, 5, rng)
    model.head_b = 0.2
    fm = rng.normal(size=(9, 6))
    labels = rng.normal(size=9)
    _, grads = lstm_backward(model, fm, labels)

    def loss():
        y = lstm_forward(model, fm)
        return float(np.sum((y - labels) ** 2))

    h = 1e-5
    H = model.hidden
    probes = 0
    worst = 0.0

    def check(arr, grad, idx):
        nonlocal probes, worst
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + h
        lp = loss()
        flat[idx] = orig - h
        lm = loss()
        flat[idx] = orig
        fd = (lp - lm) / (2 * h)
        g = gflat[idx]
        if max(abs(fd), abs(g)) < 1e-7:
            assert abs(fd - g) < 1e-7
        else:
            rel = abs(fd - g) / max(abs(fd), abs(g))
            worst = max(worst, rel)
            assert rel < 1e-4
        probes += 1

    for layer in range(model.n_layers):
        for gate in range(4):  # input, forget, cell, output blocks
            rows = range(gate * H, (gate + 1) * H)
            for name in (f"W{layer}", f"U{layer}", f"b{layer}"):
                arr = dict(model.param_items())[name]
                grad = grads[name]
                cols = arr.shape[1] if arr.ndim == 2 else 1
                for r in (min(rows), max(rows)):
                    for c in range(min(cols, 3)):
                        idx = r * cols + c if arr.ndim == 2 else r
                        check(arr, grad, idx)
    for idx in range(model.hidden):
        check(model.head_w, grads["head_w"], idx)
    model.head_b += h
    lp = loss()
    model.head_b -= 2 * h
    lm = loss()
    model.head_b += h
    fd = (lp - lm) / (2 * h)
    assert abs(fd - float(grads["head_b"])) / max(abs(fd), 1e-7) < 1e-4
    probes += 1
    assert probes >= 100
    _pass(4, f"BPTT gradient check: {probes} probes across layers/gates/head, worst rel {worst:.1e}")


def test_criterion_05_training_determinism(pipeline, tmp_path):
    from gnssweight.nn import load_checkpoint, save_checkpoint

    splits = pipeline["splits"]
    norm = fit_normalization(splits["train"][:60], "residual")
    tr = normalized_split(splits["train"][:60], norm, "residual")
    va = normalized_split(splits["val"][:20], norm, "residual")
    cfg = TrainConfig(learning_rate=3e-3, batch_size=8, max_epochs=4, patience=4, seed=5, hidden=12)
    runs = []
    for tag in ("a", "b"):
        model, report = train(tr, va, cfg)
        path = tmp_path / f"{tag}.npz"
        save_checkpoint(path, model, norm.mean, norm.std, cfg)
        runs.append((path, report))
    (p1, r1), (p2, r2) = runs
    assert r1.train_losses == r2.train_losses
    assert r1.val_losses == r2.val_losses
    m1 = load_checkpoint(p1)
    m2 = load_checkpoint(p2)
    for (k1, a1), (k2, a2) in zip(m1[0].param_items(), m2[0].param_items()):
        assert k1 == k2
        assert np.array_equal(a1, a2)
    assert m1[0].head_b == m2[0].head_b
    _pass(5, "two same-seed training runs: bit-identical checkpoints and loss curves")


def test_criterion_06_label_weight_consistency():
    cfg = ScenarioConfig(profile="urban_canyon", seed=17, duration_s=40.0)
    epochs, _ = generate_session(cfg)
    checked = 0
    for epoch in epochs:
        labels = make_labels(epoch)
        w = quality_to_weights(labels)
        clocks = dict(zip(epoch.constellations(), truth_residuals(epoch)[1] / SPEED_OF_LIGHT))
        rng_m = np.linalg.norm(epoch.truth.as_array()[None, :] - epoch.sat_array(), axis=1)
        errs = epoch.pr_array() - rng_m - SPEED_OF_LIGHT * np.array(
            [clocks[m.constellation] for m in epoch.measurements]
        )
        expect = np.clip(1.0 / np.maximum(np.abs(errs), LABEL_EPSILON_M) ** 2, 1e-8, 1e4)
        assert np.allclose(w, expect, rtol=1e-5)
        checked += epoch.n
        if checked >= 1000:
            break
    assert checked >= 1000
    _pass(6, f"labels invert to 1/max(|err|, eps)^2 weights on {checked} measurements")


def test_criterion_07_sliding_window_properties(rng):
    epoch0, truth = make_epoch(rng, n=4, constellations=(ConstellationId.GPS,))
    ref = ecef_to_geodetic(truth.position)
    hist = TrackingHistory()

    def push(t, cn0s, subset=None):
        ms = [
            PseudorangeMeasurement(
                constellation=m.constellation,
                sv_id=m.sv_id,
                band=m.band,
                pseudorange=m.pseudorange,
                sat_pos=m.sat_pos,
                cn0=c,
                lock_time=1.0,
            )
            for m, c in zip(epoch0.measurements, cn0s)
            if subset is None or m.sv_id in subset
        ]
        return hist.update_and_extract(Epoch(time=t, measurements=ms), ref)

    mean, var, size = (PER_LINK_COLUMNS.index(c) for c in ("cn0_mean", "cn0_var", "window_size"))
    out = push(0.0, [40.0, 41.0, 42.0, 43.0])
    assert all(f[size] == 1 and f[var] == VARIANCE_SENTINEL for f in out)
    for k in range(1, 15):
        out = push(0.2 * k, [40.0 + k] * 4)
    assert all(f[size] == WINDOW_CAPACITY for f in out)
    vals = np.arange(40.0 + 5, 40.0 + 15)
    assert out[0, mean] == pytest.approx(vals.mean(), rel=1e-12)
    assert out[0, var] == pytest.approx(vals.var(ddof=1), rel=1e-12)
    # isolation: link 4 sits out past the continuity horizon and restarts,
    # the links that kept reporting keep their windows
    push(3.0, [60.0] * 4, subset={1, 2, 3})
    push(3.2, [60.0] * 4, subset={1, 2, 3})
    out = push(3.4, [50.0] * 4)
    sizes = {m.sv_id: f[size] for m, f in zip(epoch0.measurements, out)}
    assert sizes[4] == 1
    assert all(sizes[sv] > 1 for sv in (1, 2, 3))
    _pass(7, "sliding window: capacity 10, single-entry sentinel, per-link isolation, ddof=1")


def test_criterion_08_oracle_weight_dominance(pipeline):
    dataset = pipeline["dataset"]
    faulted = sum(any(f) for s in dataset.sessions for f in s.truth.fault_flags)
    total = sum(len(s.epochs) for s in dataset.sessions)
    assert len(dataset.sessions) == 30
    assert faulted / total >= 0.20

    s = pipeline["summaries"]
    for q in (0.68, 0.95):
        assert s["truth"].quantiles[q] < s["equal"].quantiles[q]
        assert s["truth"].quantiles[q] < s["fde_sota"].quantiles[q]
    _pass(
        8,
        "ground-truth weights dominate equal and FDE at q68 "
        f"({s['truth'].quantiles[0.68]:.2f} < {s['equal'].quantiles[0.68]:.2f}, "
        f"{s['fde_sota'].quantiles[0.68]:.2f} m) and q95; "
        f"{faulted / total:.0%} of epochs faulted",
    )


def test_criterion_09_learned_weighting_gain(pipeline):
    s = pipeline["summaries"]
    q_full = s["nn_full"].quantiles[0.68]
    q_res = s["nn_residual"].quantiles[0.68]
    q_fde = s["fde_sota"].quantiles[0.68]
    assert q_full <= 0.90 * q_fde
    assert q_full <= q_res <= q_fde
    assert pipeline["elapsed_s"] < 1800.0
    _pass(
        9,
        f"test-split q68: full {q_full:.2f} m vs FDE {q_fde:.2f} m "
        f"({(1 - q_full / q_fde):.0%} better, residual-only {q_res:.2f} m in between); "
        f"pipeline ran in {pipeline['elapsed_s']:.0f} s",
    )


def test_criterion_10_fde_single_fault_exclusion(rng):
    params = SotaWeightParams(sigma_z2=1.0, sigma_c2=0.0)
    cfg = FdeConfig(noise_sigma_m=1.0)
    hits = 0
    trials = 1000
    for _ in range(trials):
        bias = float(rng.uniform(50.0, 150.0))
        target_gen = int(rng.integers(0, 12))
        epoch, _ = make_epoch(rng, n=12, noise_sigma=1.0, biases={target_gen: bias})
        idx = next(i for i, m in enumerate(epoch.measurements) if m.sv_id == target_gen + 1)
        res = fde_solve(epoch, cfg, params)
        if res.excluded == [idx]:
            hits += 1
    rate = hits / trials
    assert rate >= 0.90
    _pass(10, f"FDE excluded exactly the faulty satellite in {rate:.1%} of {trials} trials "
              f"(threshold {cfg.threshold})")


def test_criterion_11_unit_examples():
    # geodetic conversions
    p = geodetic_to_ecef(GeodeticPosition(0.0, 0.0, 0.0))
    assert (p.x, p.y, p.z) == pytest.approx((6378137.0, 0.0, 0.0), abs=1e-9)
    g = ecef_to_geodetic(EcefPosition(0.0, 6378137.0, 0.0))
    assert g.longitude == pytest.approx(math.pi / 2, abs=1e-12)
    # ENU / elevation definitions
    ref = GeodeticPosition(0.3, -1.1, 50.0)
    assert np.linalg.norm(ecef_to_enu(geodetic_to_ecef(ref), ref).as_array()) < 1e-9
    # observation function
    state = NavState(EcefPosition(0.0, 0.0, 0.0), {ConstellationId.GPS: 1e-3})
    m = PseudorangeMeasurement(
        constellation=ConstellationId.GPS, sv_id=1, band=Band.L1,
        pseudorange=2e7, sat_pos=EcefPosition(2e7, 0.0, 0.0), cn0=45.0, lock_time=1.0,
    )
    assert observation_function(state, m) == pytest.approx(2e7 + 299792.458, abs=1e-6)
    # weight mapping
    assert quality_to_weights(np.array([math.log(2.0)]))[0] == pytest.approx(0.25)
    assert quality_to_weights(np.array([20.0]))[0] == 1e-8
    # parametric variance ratios
    p5 = SotaWeightParams(1.0, 0.0)
    ratio = sota_sigma2(math.pi / 6, 45.0, p5) / sota_sigma2(math.pi / 2, 45.0, p5)
    assert ratio == pytest.approx(4.0, rel=1e-12)
    # quantiles
    assert empirical_quantile([3.0, 3.0, 3.0], 0.31) == 3.0
    assert empirical_quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    # position error decomposition
    ref = GeodeticPosition(math.radians(12.0), math.radians(77.0), 900.0)
    truth = geodetic_to_ecef(ref)
    from gnssweight.geo import enu_rotation

    rot = enu_rotation(ref)
    est = EcefPosition(*(truth.as_array() + 3.0 * rot[0] + 4.0 * rot[1]).tolist())
    h, v = position_errors(est, truth)
    assert h == pytest.approx(5.0, abs=1e-6)
    assert v == pytest.approx(0.0, abs=1e-6)
    _pass(11, "unit examples: geodesy, observation, weights, variance model, quantiles, errors")
