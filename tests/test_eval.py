import collections
import math

import numpy as np
import pytest

from gnssweight import _kernels, sim, solver
from gnssweight.baselines import SotaWeightParams
from gnssweight.dataio import Session
from gnssweight.errors import EmptySamples
from gnssweight.evaluation import (
    CdfSummary,
    ErrorRecord,
    StrategyModels,
    compare_strategies,
    empirical_quantile,
    evaluate_session,
    position_errors,
    read_error_csv,
    summary_dict,
    write_error_csv,
)
from gnssweight.featurize import N_FEATURES, N_RESIDUAL_SUMMARY, FeatureNormalization
from gnssweight.geo import EcefPosition, GeodeticPosition, enu_rotation, geodetic_to_ecef
from gnssweight.nn import LstmModel
from gnssweight.sim import generate_session, profile_config
from conftest import make_epoch


def test_position_errors_trivials():
    ref = GeodeticPosition(math.radians(40.0), math.radians(-3.0), 600.0)
    truth = geodetic_to_ecef(ref)
    rot = enu_rotation(ref)  # rows e, n, u
    # 3-4 horizontal offset plus 12 up: classic 3-4-5 in the plane
    offset = 3.0 * rot[0] + 4.0 * rot[1] + 12.0 * rot[2]
    est = EcefPosition.from_array(truth.as_array() + offset)
    h, v = position_errors(est, truth)
    # offsets are applied at ECEF scale, so ulps of 6.4e6 m (~1e-9) remain
    assert h == pytest.approx(5.0, abs=1e-6)
    assert v == pytest.approx(12.0, abs=1e-6)
    h, v = position_errors(truth, truth)
    # the geodetic round-trip inside the ENU frame leaves a few 1e-9
    assert h == pytest.approx(0.0, abs=1e-8)
    assert v == pytest.approx(0.0, abs=1e-8)


def test_empirical_quantile_examples():
    assert empirical_quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    # rank 0.68 * 4 = 2.72: between the 3rd and 4th order statistics
    assert empirical_quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.68) == pytest.approx(3.72)
    assert empirical_quantile([7.0], 0.95) == 7.0
    assert empirical_quantile([5.0, 1.0], 0.5) == pytest.approx(3.0)  # sorts internally
    with pytest.raises(EmptySamples):
        empirical_quantile([], 0.5)
    with pytest.raises(ValueError):
        empirical_quantile([1.0], 1.0)


def test_cdf_summary_skips_failures():
    recs = [
        ErrorRecord("s", 0.0, "equal", 1.0, 0.5, True, 8, 0),
        ErrorRecord("s", 0.2, "equal", float("nan"), float("nan"), False, 8, 0),
        ErrorRecord("s", 0.4, "equal", 3.0, 0.5, True, 8, 0),
    ]
    s = CdfSummary.from_records("equal", recs)
    assert s.count == 2
    assert s.failures == 1
    assert s.quantiles[0.50] == pytest.approx(2.0)


def _noise_free_session(monkeypatch):
    monkeypatch.setattr(sim, "CLOCK_WALK_SIGMA_S", 0.0)
    monkeypatch.setattr(sim, "CN0_NOISE_SIGMA_DB", 0.0)
    cfg = profile_config(
        "open_sky",
        seed=4,
        duration_s=2.0,
        noise_sigma_m=0.0,
        nlos_prob_curve=((math.radians(5.0), 0.0), (math.radians(90.0), 0.0)),
    )
    epochs, truth = generate_session(cfg, session_id="clean")
    return Session(session_id="clean", profile="open_sky", split="test", epochs=epochs, truth=truth)


def test_strategies_agree_on_noise_free_data(monkeypatch):
    session = _noise_free_session(monkeypatch)
    models = StrategyModels(sota=SotaWeightParams(1.0, 0.0))
    records = evaluate_session(session, ("equal", "truth", "fde_sota"), models)
    assert len(records) == 3 * len(session.epochs)
    for r in records:
        assert r.converged
        assert r.h_err_m < 1e-5
        assert r.v_err_m < 1e-5


def test_missing_model_raises(monkeypatch):
    session = _noise_free_session(monkeypatch)
    with pytest.raises(ValueError, match="nn_full"):
        evaluate_session(session, ("nn_full",), StrategyModels())
    with pytest.raises(ValueError, match="fde_sota"):
        evaluate_session(session, ("fde_sota",), StrategyModels())
    with pytest.raises(ValueError, match="unknown"):
        evaluate_session(session, ("bogus",), StrategyModels())


def test_compare_strategies_deterministic_across_jobs():
    from gnssweight.dataio import Dataset

    sessions = []
    for k, seed in enumerate((100, 101, 102)):
        cfg = profile_config("suburban", seed=seed, duration_s=2.0)
        epochs, truth = generate_session(cfg, session_id=f"s{k}")
        sessions.append(Session(f"s{k}", "suburban", "test", epochs, truth))
    ds = Dataset(seed=0, sessions=sessions)
    models = StrategyModels(sota=SotaWeightParams(1.0, 0.0))
    r1, sum1 = compare_strategies(ds, ("equal", "fde_sota"), models, jobs=1)
    r2, sum2 = compare_strategies(ds, ("equal", "fde_sota"), models, jobs=2)
    assert [(r.session_id, r.t, r.strategy, r.h_err_m) for r in r1] == [
        (r.session_id, r.t, r.strategy, r.h_err_m) for r in r2
    ]
    for strat in ("equal", "fde_sota"):
        assert sum1[strat].quantiles == sum2[strat].quantiles


def test_error_csv_round_trip(tmp_path):
    recs = [
        ErrorRecord("a", 0.2, "equal", 1.25, 0.5, True, 9, 0),
        ErrorRecord("a", 0.4, "truth", float("nan"), float("nan"), False, 9, 2),
    ]
    path = tmp_path / "errors.csv"
    write_error_csv(recs, path)
    back = read_error_csv(path)
    assert len(back) == 2
    assert back[0].h_err_m == 1.25
    assert back[0].converged
    assert not back[1].converged
    assert math.isnan(back[1].h_err_m)
    assert back[1].n_zero_weight == 2


def test_summary_dict_shape():
    recs = [ErrorRecord("s", 0.0, "equal", float(i), 0.1, True, 8, 0) for i in range(10)]
    s = {"equal": CdfSummary.from_records("equal", recs)}
    d = summary_dict(s)
    assert d["equal"]["count"] == 10
    assert set(d["equal"]["quantiles_h_m"]) == {"0.5", "0.68", "0.95"}


def test_truth_weight_strategy_uses_labels(rng):
    # a faulted measurement gets a tiny weight, so the truth strategy
    # recovers the clean fix while equal weights are dragged away
    from gnssweight.dataio import Session as S

    epochs = []
    for k in range(5):
        ep, _ = make_epoch(rng, n=9, noise_sigma=1.0, biases={4: 200.0}, time=0.2 * k)
        epochs.append(ep)
    session = S("f", "urban_canyon", "test", epochs, None)
    records = evaluate_session(session, ("truth", "equal"), StrategyModels())
    t = [r.h_err_m for r in records if r.strategy == "truth"]
    e = [r.h_err_m for r in records if r.strategy == "equal"]
    assert np.median(t) < 0.5 * np.median(e)


def test_one_cold_equal_weight_fix_per_epoch(monkeypatch):
    # every strategy shares the epoch's equal-weight all-in-view fix, so
    # the kernel sees exactly one cold-started all-ones solve per epoch;
    # leave-one-out subsets and FDE's later rounds solve other problems
    cfg = profile_config("urban_canyon", seed=3, duration_s=1.0)  # N = 12
    epochs, truth = generate_session(cfg, session_id="u")
    session = Session("u", "urban_canyon", "test", epochs, truth)
    net_rng = np.random.default_rng(0)
    models = StrategyModels(
        nn_full=(LstmModel.init(N_FEATURES, 4, net_rng),
                 FeatureNormalization(np.zeros(N_FEATURES), np.ones(N_FEATURES))),
        nn_residual=(LstmModel.init(N_RESIDUAL_SUMMARY, 4, net_rng),
                     FeatureNormalization(np.zeros(N_RESIDUAL_SUMMARY), np.ones(N_RESIDUAL_SUMMARY))),
        sota=SotaWeightParams(1.0, 0.0),
    )
    cold = solver._DEFAULT_START.as_array()
    solves = collections.Counter()
    lm_solve = _kernels.lm_solve

    def counting(sat, pr, w, const_idx, n_clk, x0, *rest):
        if np.all(w == 1.0) and np.array_equal(x0[:3], cold) and not x0[3:].any():
            solves[pr.tobytes()] += 1
        return lm_solve(sat, pr, w, const_idx, n_clk, x0, *rest)

    monkeypatch.setattr(_kernels, "lm_solve", counting)
    records = evaluate_session(session, ("truth", "nn_full", "nn_residual", "fde_sota", "equal"), models)
    assert len(records) == 5 * len(epochs)
    assert [solves[e.pr_array().tobytes()] for e in epochs] == [1] * len(epochs)
