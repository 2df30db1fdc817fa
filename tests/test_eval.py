import collections
import csv
import dataclasses
import math

import numpy as np
import pytest

from gnssweight import _kernels, evaluation, sim, solver
from gnssweight.baselines import SotaWeightParams
from gnssweight.dataio import Dataset, Session
from gnssweight.errors import ConfigInvalid, EmptySamples, ParseError
from gnssweight.evaluation import (
    STRATEGIES,
    CdfSummary,
    ErrorRecord,
    StrategyModels,
    compare_strategies,
    empirical_quantile,
    evaluate_session,
    position_errors,
    read_error_csv,
    session_groups,
    summary_dict,
    write_error_csv,
)
from gnssweight.featurize import N_FEATURES, N_RESIDUAL_SUMMARY, FeatureNormalization
from gnssweight.geo import EcefPosition, GeodeticPosition, enu_rotation, geodetic_to_ecef
from gnssweight.nn import LstmModel
from gnssweight.sim import ScenarioConfig, generate_session
from conftest import make_epoch, reference_fix


def test_position_errors_trivials():
    ref = GeodeticPosition(math.radians(40.0), math.radians(-3.0), 600.0)
    truth = geodetic_to_ecef(ref)
    rot = enu_rotation(ref)  # rows e, n, u
    # 3-4 horizontal offset plus 12 up: classic 3-4-5 in the plane
    offset = 3.0 * rot[0] + 4.0 * rot[1] + 12.0 * rot[2]
    est = EcefPosition(*(truth.as_array() + offset).tolist())
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


def _tiny_models():
    """Untrained four-unit LSTMs for both learned strategies, identity
    normalization, and a flat parametric model for FDE."""
    net_rng = np.random.default_rng(0)
    return StrategyModels(
        nn_full=(LstmModel.init(N_FEATURES, 4, net_rng),
                 FeatureNormalization(np.zeros(N_FEATURES), np.ones(N_FEATURES))),
        nn_residual=(LstmModel.init(N_RESIDUAL_SUMMARY, 4, net_rng),
                     FeatureNormalization(np.zeros(N_RESIDUAL_SUMMARY), np.ones(N_RESIDUAL_SUMMARY))),
        sota=SotaWeightParams(1.0, 0.0),
    )


def _noise_free_session(monkeypatch):
    monkeypatch.setattr(sim, "CLOCK_WALK_SIGMA_S", 0.0)
    monkeypatch.setattr(sim, "CN0_NOISE_SIGMA_DB", 0.0)
    monkeypatch.setitem(sim._NLOS_CURVES, "open_sky", [(math.radians(5.0), 0.0), (math.radians(90.0), 0.0)])
    cfg = ScenarioConfig(profile="open_sky", seed=4, duration_s=2.0, noise_sigma_m=0.0)
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
    with pytest.raises(ConfigInvalid, match="'evaluate.strategies' entry 'bogus' not one of"):
        evaluate_session(session, ("bogus",), StrategyModels())
    with pytest.raises(ConfigInvalid, match="'evaluate.strategies' repeats 'equal'"):
        evaluate_session(session, ("equal", "truth", "equal"), StrategyModels())
    # checked before any solve: also with nothing to score
    unscored = Session("none", "open_sky", "test", [], None)
    with pytest.raises(ValueError, match="nn_full"):
        evaluate_session(unscored, ("nn_full",), StrategyModels())
    with pytest.raises(ValueError, match="fde_sota"):
        compare_strategies(Dataset(seed=0, sessions=[]), ("nn_full", "fde_sota"),
                           StrategyModels(nn_full=_tiny_models().nn_full))
    with pytest.raises(ValueError, match="nn_full"):
        compare_strategies(Dataset(seed=0, sessions=[]), ("nn_full", "fde_sota"), StrategyModels(), jobs=2)


def test_strategies_are_checked_once_per_call(monkeypatch):
    """``compare_strategies`` checks its strategies and models once, not
    again for each group of sessions; ``evaluate_session`` once too."""
    check = evaluation._check_strategies
    calls = []
    monkeypatch.setattr(evaluation, "_check_strategies", lambda *args: calls.append(args) or check(*args))
    sessions = []
    for k in range(3):
        epochs, truth = generate_session(ScenarioConfig(profile="suburban", seed=k, duration_s=0.4), f"s{k}")
        sessions.append(Session(f"s{k}", "suburban", "test", epochs, truth))
    records, _ = compare_strategies(Dataset(seed=0, sessions=sessions), ("equal",), StrategyModels(), jobs=1)
    assert len(records) == 6 and len(calls) == 1
    evaluate_session(sessions[0], ("equal",), StrategyModels())
    assert len(calls) == 2


def test_compare_strategies_deterministic_across_jobs():
    sessions = []
    for k, seed in enumerate((100, 101, 102)):
        cfg = ScenarioConfig(profile="suburban", seed=seed, duration_s=2.0)
        epochs, truth = generate_session(cfg, session_id=f"s{k}")
        sessions.append(Session(f"s{k}", "suburban", "test", epochs, truth))
    ds = Dataset(seed=0, sessions=sessions)
    models = _tiny_models()
    r1, sum1 = compare_strategies(ds, STRATEGIES, models, jobs=1)
    assert len(r1) == 5 * sum(len(s.epochs) for s in sessions)
    # two groups of sessions, then one session per group (three workers)
    for jobs in (2, 4):
        r2, sum2 = compare_strategies(ds, STRATEGIES, models, jobs=jobs)
        # whole records, NaN failures included (dataclass equality would fail on NaN)
        assert [_record_bytes(r) for r in r1] == [_record_bytes(r) for r in r2]
        for strat in STRATEGIES:
            assert sum1[strat] == sum2[strat]


def test_session_groups_split_contiguously_and_reject_jobs_below_one():
    sessions = [f"s{k}" for k in range(7)]
    assert session_groups(sessions, 1) == [sessions]
    assert session_groups(sessions, 3) == [sessions[:2], sessions[2:4], sessions[4:]]
    # never more groups (worker processes) than sessions
    assert session_groups(sessions[:2], 4) == [sessions[:1], sessions[1:2]]
    assert session_groups([], 2) == []
    for jobs in (0, -3):
        with pytest.raises(ConfigInvalid, match="at least 1"):
            session_groups(sessions, jobs)
    ds = Dataset(seed=0, sessions=[])
    with pytest.raises(ConfigInvalid):
        compare_strategies(ds, ("equal",), StrategyModels(), jobs=0)


def _record_bytes(r):
    return (r.session_id, r.t, r.strategy, np.float64(r.h_err_m).tobytes(),
            np.float64(r.v_err_m).tobytes(), r.converged, r.n_sv, r.n_zero_weight)


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


@pytest.mark.parametrize("column, value", [
    ("converged", "2"), ("converged", "-1"), ("n_sv", "-1"), ("n_zero_weight", "-3"),
])
def test_error_csv_rejects_flags_and_counts_out_of_range(tmp_path, column, value):
    """``converged`` other than 0/1 and a negative count fail with the line
    of the offending record; the file's other records are well formed."""
    recs = [
        ErrorRecord("a", 0.2, "equal", 1.25, 0.5, True, 9, 0),
        ErrorRecord("a", 0.4, "truth", 2.5, 0.75, False, 9, 2),
    ]
    path = tmp_path / "errors.csv"
    write_error_csv(recs, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    rows[1][column] = value
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    with pytest.raises(ParseError, match=column) as e:
        read_error_csv(path)
    assert e.value.line == 3  # the header, then the two records


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
    # the kernel sees exactly one cold-started all-ones solve per epoch,
    # whether as a single solve or as a row of a batch (the fix is its own
    # problem in the leave-one-out batch); leave-one-out subsets and FDE's
    # later rounds solve other problems. An epoch whose fix fails is not
    # solved again by `equal` or FDE, and one with N < d never reaches the
    # kernel (solve_batch does not solve a row with fewer positive weights
    # than unknowns). A batch row may be padded to the call's N with
    # zero-weight links, so it counts for the pr of its all-ones prefix.
    cfg = ScenarioConfig(profile="urban_canyon", seed=3, duration_s=1.0)  # N = 12
    epochs, truth = generate_session(cfg, session_id="u")
    urban = Session("u", "urban_canyon", "test", epochs, truth)
    mixed = Session("m", "urban_canyon", "test", _mixed_epochs(), None)  # its last fix is singular
    models = _tiny_models()
    cold = solver._DEFAULT_START.as_array()
    solves = collections.Counter()
    lm_solve, lm_solve_batch = _kernels.lm_solve, _kernels.lm_solve_batch
    in_single = []  # lm_solve may run as a stack of one; count it once

    def count(pr, w, x0):
        m = np.count_nonzero(w)
        if np.all(w[:m] == 1.0) and np.array_equal(x0[:3], cold) and not x0[3:].any():
            solves[pr[:m].tobytes()] += 1

    def counting(sat, pr, w, const_idx, n_clk, x0):
        count(pr, w, x0)
        in_single.append(True)
        try:
            return lm_solve(sat, pr, w, const_idx, n_clk, x0)
        finally:
            in_single.pop()

    def counting_batch(sat, pr, w, const_idx, n_clk, x0):
        if not in_single:
            for b, (wb, xb) in enumerate(zip(w, x0)):
                count(pr[b], wb, xb)
        return lm_solve_batch(sat, pr, w, const_idx, n_clk, x0)

    monkeypatch.setattr(_kernels, "lm_solve", counting)
    monkeypatch.setattr(_kernels, "lm_solve_batch", counting_batch)
    # with a learned strategy the fix is a problem of the leave-one-out
    # batch; without one, a problem of the batch of fixes
    for session in (urban, mixed):
        for strategies in (STRATEGIES, ("equal", "fde_sota")):
            solves.clear()
            records = evaluate_session(session, strategies, models)
            assert len(records) == len(strategies) * len(session.epochs)
            assert [solves[e.pr_array().tobytes()] for e in session.epochs] == \
                [int(e.n >= e.state_dim()) for e in session.epochs]


def _reference_records(session, strategies, models):
    """``evaluate_session`` with every solve its own: the shared fix from
    ``reference_fix``, one ``solve_wls`` per weighted strategy, and FDE
    solving each of its rounds."""
    from gnssweight.baselines import fde_solve
    from gnssweight.errors import GnssWeightError, NonConvergence, NotEnoughMeasurements, SingularGeometry
    from gnssweight.evaluation import ZERO_WEIGHT_CUTOFF
    from gnssweight.features import TrackingHistory
    from gnssweight.featurize import assemble_feature_matrix, feature_columns
    from gnssweight.geo import ecef_to_geodetic
    from gnssweight.nn import make_labels, predict_weights, quality_to_weights
    from gnssweight.residuals import build_residual_matrix, solve_rows

    history = TrackingHistory()
    out = []
    for epoch in session.epochs:
        nan = float("nan")

        def failed(strategy, n_zero=0):
            return ErrorRecord(epoch.session_id, epoch.time, strategy, nan, nan, False, epoch.n, n_zero)

        try:
            fix = reference_fix(epoch)
        except (NotEnoughMeasurements, SingularGeometry):
            fix = None
        fm = None
        if fix is not None:
            per_link = history.update_and_extract(epoch, ecef_to_geodetic(fix.state.position))
            try:
                fm = assemble_feature_matrix(build_residual_matrix(epoch, solve_rows([epoch])[0]), per_link)
            except NotEnoughMeasurements:
                pass
        for strategy in strategies:
            if strategy == "fde_sota":
                try:
                    if fix is None:
                        raise SingularGeometry("no fix")
                    res = fde_solve(epoch, models.fde_cfg, models.sota, fix=fix)
                except GnssWeightError:
                    out.append(failed(strategy))
                    continue
                h, v = position_errors(res.report.state, epoch.truth)
                out.append(ErrorRecord(epoch.session_id, epoch.time, strategy, h, v, res.report.converged,
                                       epoch.n, len(res.excluded)))
                continue
            if strategy == "equal":
                w = np.ones(epoch.n)
            elif strategy == "truth":
                w = quality_to_weights(make_labels(epoch))
            elif fm is None:
                out.append(failed(strategy))
                continue
            else:
                model, norm = getattr(models, strategy)
                mode = "full" if strategy == "nn_full" else "residual"
                w = predict_weights(model, norm.apply(fm[:, feature_columns(mode)]))
            n_zero = int(np.sum(w <= ZERO_WEIGHT_CUTOFF))
            try:
                rep = solver.solve_wls(epoch, w, init=fix.state if fix is not None else None)
                state, converged = rep.state, True
            except NonConvergence as e:
                state, converged = e.report.state, False
            except GnssWeightError:
                out.append(failed(strategy, n_zero))
                continue
            h, v = position_errors(state, epoch.truth)
            out.append(ErrorRecord(epoch.session_id, epoch.time, strategy, h, v, converged, epoch.n, n_zero))
    return out


def _mixed_epochs():
    """25 epochs with N < d, N = d, a one-link BeiDou constellation, faults
    that FDE excludes and, last, N = 8 links on one line of sight, whose
    equal-weight fix is singular."""
    from gnssweight.model import ConstellationId, Epoch, PseudorangeMeasurement

    rng = np.random.default_rng(909)
    epochs = []
    for k in range(24):
        kind = k % 6
        n = {0: 3, 1: 5}.get(kind, 12)  # N < d and N = d (two clocks: d = 5)
        biases = {5: 80.0, 9: -60.0} if kind >= 3 else None
        ep, _ = make_epoch(rng, n=n, noise_sigma=1.0, biases=biases, time=0.2 * k)
        ms = list(ep.measurements)
        if kind in (2, 5):
            # a one-satellite BeiDou link
            base = ms[int(rng.integers(0, n))]
            sat = base.sat_pos.as_array() + rng.normal(0.0, 1e6, size=3)
            ms.append(PseudorangeMeasurement(
                ConstellationId.BEIDOU, 40, base.band, base.pseudorange + rng.normal(0.0, 50.0),
                EcefPosition(*sat.tolist()), 40.0, 1.0,
            ))
        epochs.append(Epoch(time=ep.time, measurements=ms, truth=ep.truth, session_id="m"))
    ep, _ = make_epoch(rng, n=8, noise_sigma=1.0, time=0.2 * 24)
    sat = ep.measurements[0].sat_pos
    ms = [dataclasses.replace(m, sat_pos=sat) for m in ep.measurements]
    epochs.append(Epoch(time=ep.time, measurements=ms, truth=ep.truth, session_id="m"))
    return epochs


@pytest.mark.bitwise
def test_batched_records_match_per_strategy_solves():
    """The batched weighted solves, the fix taken from the leave-one-out
    batch and FDE's first round taken from it give every record the bits
    of solving each on its own: on epochs with N < d, N = d, a one-link
    constellation and FDE exclusions."""
    session = Session("m", "urban_canyon", "test", _mixed_epochs(), None)
    models = _tiny_models()
    got = evaluate_session(session, STRATEGIES, models)
    expect = _reference_records(session, STRATEGIES, models)
    assert [_record_bytes(r) for r in got] == [_record_bytes(r) for r in expect]
    fde = [r for r in got if r.strategy == "fde_sota"]
    assert sum(r.n_zero_weight > 0 for r in fde) >= 4  # FDE excluded links
    assert sum(not r.converged for r in got) >= 8  # the sparse epochs fail


def test_capped_fde_final_solve_is_recorded_unconverged(monkeypatch, tmp_path):
    """An FDE whose final solve stops at the iteration cap keeps that
    solve's iterate and is recorded unconverged, as a capped weighted
    solve is: ``converged`` False in its record and 0 in ``errors.csv``."""
    from gnssweight.baselines import fde_solve
    from gnssweight.errors import GnssWeightError

    session = Session("m", "urban_canyon", "test", _mixed_epochs(), None)
    models = _tiny_models()
    monkeypatch.setattr(_kernels, "MAX_ITERATIONS", 2)
    records = evaluate_session(session, ("fde_sota",), models)
    capped = []  # indices of the records whose final solve hit the cap
    for k, (epoch, record) in enumerate(zip(session.epochs, records)):
        try:
            res = fde_solve(epoch, models.fde_cfg, models.sota)
        except GnssWeightError:
            assert not record.converged and math.isnan(record.h_err_m)
            continue
        h, _ = position_errors(res.report.state, epoch.truth)
        assert (record.h_err_m, record.converged) == (h, res.report.converged)
        if not res.report.converged:
            capped.append(k)
    assert len(capped) >= 3
    path = tmp_path / "errors.csv"
    write_error_csv(records, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [rows[k]["converged"] for k in capped] == ["0"] * len(capped)


@pytest.mark.bitwise
def test_cross_epoch_records_match_per_session_reference(monkeypatch):
    """``compare_strategies`` solves the rows of all sessions' epochs
    together, with kernel calls of at most 7 rows that split sessions,
    epochs and strategies; each session's records keep the bits of
    solving every epoch on its own, with and without a learned strategy.
    FDE starts from every epoch's fix, and the singular epoch, which has
    none, gets its failed record without an FDE run."""
    from gnssweight.model import Epoch

    epochs = _mixed_epochs()
    cuts = ((0, 7), (7, 15), (15, 25))
    fde_runs = []  # (N, fix given) of each FDE run
    fde_run = evaluation.fde_run

    def recording(epoch, cfg, params, fix):
        fde_runs.append((epoch.n, fix is not None))
        return fde_run(epoch, cfg, params, fix)

    monkeypatch.setattr(evaluation, "fde_run", recording)
    sessions = [
        Session(f"m{k}", "urban_canyon", "test",
                [Epoch(time=e.time, measurements=e.measurements, truth=e.truth, session_id=f"m{k}")
                 for e in epochs[a:b]], None)
        for k, (a, b) in enumerate(cuts)
    ]
    models = _tiny_models()
    monkeypatch.setattr(solver, "MAX_ROWS_PER_CALL", 7)
    for strategies in (STRATEGIES, ("equal", "truth", "fde_sota")):
        got, _ = compare_strategies(Dataset(seed=0, sessions=sessions), strategies, models)
        expect = [r for s in sessions for r in _reference_records(s, strategies, models)]
        assert [_record_bytes(r) for r in got] == [_record_bytes(r) for r in expect]
        ran = [n for n, _ in fde_runs]
        assert all(given for _, given in fde_runs) and 8 not in ran and {5, 12, 13} <= set(ran), fde_runs
        fde_runs.clear()
