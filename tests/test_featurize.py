import numpy as np
import pytest

from gnssweight import solver
from gnssweight.dataio import Dataset, Session
from gnssweight.errors import EmptySplit
from gnssweight.nn import make_labels
from gnssweight.features import PER_LINK_COLUMNS, VARIANCE_SENTINEL, WINDOW_CAPACITY, TrackingHistory
from gnssweight.featurize import (
    N_FEATURES,
    N_RESIDUAL_SUMMARY,
    EpochFeaturizer,
    assemble_feature_matrix,
    FeatureNormalization,
    dataset_samples,
    feature_columns,
    featurize_sessions,
    fit_normalization,
    fold_residual_row,
    normalized_split,
)
from gnssweight.geo import ecef_to_geodetic
from gnssweight.model import ConstellationId, Epoch
from gnssweight.residuals import GAMMA, ResidualMatrix, build_residual_matrix, solve_rows
from gnssweight.sim import ScenarioConfig, generate_campaign, generate_session
from conftest import make_epoch


def test_fold_residual_row_statistics():
    row = np.array([1.0, -2.0, GAMMA, 3.0, 30.0, -0.5])
    out = fold_residual_row(row, exclude=2)
    off = np.array([1.0, -2.0, 3.0, 30.0, -0.5])
    assert out.shape == (N_RESIDUAL_SUMMARY,)
    assert out[0] == pytest.approx(off.mean())
    assert out[1] == pytest.approx(off.std())
    assert out[2] == off.min()
    assert out[3] == off.max()
    assert out[4] == np.median(off)
    assert out[5] == pytest.approx(np.abs(off).mean())
    assert out[6] == 1.0  # 30 only, above 5 m
    assert out[7] == 1.0  # 30 only, above 20 m


def test_fold_residual_row_clips_sentinels():
    row = np.array([0.0, 3.0 * GAMMA, -5.0 * GAMMA, 1.0])
    out = fold_residual_row(row, exclude=0)
    assert out[3] == GAMMA
    assert out[2] == -GAMMA


def test_feature_matrix_layout(rng):
    epoch, truth = make_epoch(rng, n=8, noise_sigma=1.0)
    fz = EpochFeaturizer()
    fm = fz.featurize(epoch)
    assert fm.shape == (8, N_FEATURES)
    rmat = build_residual_matrix(epoch, solve_rows([epoch])[0])
    for row in range(8):
        assert np.array_equal(fm[row, :N_RESIDUAL_SUMMARY], fold_residual_row(rmat.values[row], row))
    # per-link block: elevation in col 8, cn0 in col 10, window size in col 13
    for row, m in enumerate(epoch.measurements):
        assert fm[row, 10] == m.cn0
        assert fm[row, 13] == 1.0


def test_feature_columns_modes():
    assert feature_columns("full") == slice(0, N_FEATURES)
    assert feature_columns("residual") == slice(0, N_RESIDUAL_SUMMARY)
    with pytest.raises(ValueError):
        feature_columns("both")


def test_normalization_round_trip(rng):
    rows = rng.normal(loc=3.0, scale=2.5, size=(500, N_FEATURES))
    rows[:, 5] = 7.0  # constant column must not divide by zero
    norm = FeatureNormalization.fit(rows)
    z = norm.apply(rows)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z[:, 5], 0.0)
    keep = [i for i in range(N_FEATURES) if i != 5]
    assert np.allclose(z[:, keep].std(axis=0), 1.0, atol=1e-12)


def test_session_samples_and_split(rng):
    epochs = []
    for k in range(5):
        ep, _ = make_epoch(rng, n=8, noise_sigma=1.0, time=0.2 * k)
        epochs.append(ep)
    featurized = featurize_sessions([epochs])
    assert len(featurized) == 5
    for epoch, (fm, fix) in zip(epochs, featurized):
        assert fm.shape == (8, N_FEATURES)
        assert fix is not None
    samples = [(fm, make_labels(epoch)) for epoch, (fm, _) in zip(epochs, featurized)]
    norm = fit_normalization(samples, "residual")
    pairs = normalized_split(samples, norm, "residual")
    assert all(fm.shape[1] == N_RESIDUAL_SUMMARY for fm, _ in pairs)


def test_featurizer_skips_unusable_epochs(rng):
    small, _ = make_epoch(rng, n=5)
    fz = EpochFeaturizer()
    assert fz.featurize(small) is None


@pytest.mark.parametrize("rate_hz", [1.0, 2.0])
def test_windows_grow_at_low_data_rates(rate_hz):
    """A link tracked from epoch to epoch grows its C/N0 window up to
    WINDOW_CAPACITY at 1 and 2 Hz too, so the window mean and variance carry
    its history wherever a window holds two values or more."""
    dataset = generate_campaign(["suburban"], 3, seed=5, epochs_per_session=12, rate_hz=rate_hz)
    featurized = featurize_sessions([s.epochs for s in dataset.sessions])
    per_link = np.vstack([fm for fm, _ in featurized if fm is not None])[:, N_RESIDUAL_SUMMARY:]
    size = per_link[:, PER_LINK_COLUMNS.index("window_size")]
    var = per_link[:, PER_LINK_COLUMNS.index("cn0_var")]
    assert size.max() == WINDOW_CAPACITY
    assert np.array_equal(var < VARIANCE_SENTINEL, size >= 2)


def test_fit_normalization_empty_split_is_named():
    with pytest.raises(EmptySplit):
        fit_normalization([], "full")


def test_dataset_samples_never_featurizes_test_sessions(rng, monkeypatch):
    sessions = []
    for split in ("train", "val", "test"):
        epochs = [make_epoch(rng, n=8, noise_sigma=1.0, time=0.2 * k)[0] for k in range(2)]
        sessions.append(Session(split, "suburban", split, epochs))
    seen = []
    featurize = EpochFeaturizer.featurize

    def spy(self, epoch, rows=None):
        seen.append(id(epoch))
        return featurize(self, epoch, rows)

    monkeypatch.setattr(EpochFeaturizer, "featurize", spy)
    splits = dataset_samples(Dataset(seed=0, sessions=sessions))
    assert sorted(splits) == ["train", "val"]
    assert [len(splits["train"]), len(splits["val"])] == [2, 2]
    assert seen == [id(e) for s in sessions[:2] for e in s.epochs]


def test_dataset_samples_matches_per_epoch_featurization(monkeypatch):
    # urban sessions mix N, clock counts, one-link constellations and
    # epochs with N <= d; a row cap of 7 makes call boundaries split
    # sessions and row groups
    sessions = []
    plan = ((40, "train"), (46, "val"), (50, "train"), (41, "test"), (48, "val"), (42, "train"))
    for k, (seed, split) in enumerate(plan):
        cfg = ScenarioConfig(profile="urban_canyon", seed=seed, duration_s=2.0)
        epochs, truth = generate_session(cfg, session_id=f"u{k}")
        sessions.append(Session(f"u{k}", "urban_canyon", split, epochs, truth))
    fitting = [e for s in sessions if s.split != "test" for e in s.epochs]
    assert len({e.state_dim() for e in fitting}) > 1
    assert any(1 in np.bincount(e.const_index()) for e in fitting if e.n > e.state_dim())
    expect = {"train": [], "val": []}
    skipped = 0
    for session in sessions:
        if session.split in expect:
            fz = EpochFeaturizer()
            for epoch in session.epochs:
                fm = fz.featurize(epoch)
                if fm is None:
                    skipped += 1
                else:
                    expect[session.split].append((fm, make_labels(epoch)))
    assert skipped > 0 and len(expect["train"]) > 0

    monkeypatch.setattr(solver, "MAX_ROWS_PER_CALL", 7)
    got = dataset_samples(Dataset(seed=0, sessions=sessions))
    for split in expect:
        assert [(fm.tobytes(), lab.tobytes()) for fm, lab in got[split]] == \
            [(fm.tobytes(), lab.tobytes()) for fm, lab in expect[split]]


@pytest.mark.bitwise
def test_feature_matrix_folds_every_row_as_the_reference():
    """``assemble_feature_matrix`` against ``fold_residual_row``, row by row
    and byte for byte, for N = 5 to 30 (so both parities of N - 1 reach the
    median): entries beyond +-GAMMA that clip, a failed row of GAMMA, rows
    whose middle entries are 0.0 and -0.0 in mixed order, ties, and rows
    holding NaNs. The per-link block is the tracker's, after two epochs,
    copied as it is."""
    rng = np.random.default_rng(4242)
    consts = (ConstellationId.GPS, ConstellationId.GALILEO, ConstellationId.GLONASS)
    zeros = []  # the sign bit of every zero min, max and median of rows 2 and 3
    for n in range(5, 31):
        values = rng.normal(0.0, 30.0, (n, n))
        values[rng.random((n, n)) < 0.1] *= 1e3  # beyond +-GAMMA: clipped
        values[1] = GAMMA  # a failed row
        signed = rng.random(n) < 0.6
        values[2, signed] = np.where(rng.random(signed.sum()) < 0.5, 0.0, -0.0)
        values[3] = np.round(values[3] / 20.0) * 20.0  # ties
        values[3, : n // 2] = -0.0
        values[4, rng.integers(0, n, 1 + n % 3)] = np.nan  # NaNs anywhere in a row
        np.fill_diagonal(values, GAMMA)
        rmat = ResidualMatrix(values=values)

        epoch, truth = make_epoch(rng, n=n, constellations=consts)
        hist = TrackingHistory()
        ref = ecef_to_geodetic(truth.position)
        hist.update_and_extract(epoch, ref)
        later = Epoch(time=0.2, measurements=[m for k, m in enumerate(epoch.measurements) if k % 3])
        hist.update_and_extract(later, ref)
        per_link = hist.update_and_extract(Epoch(time=0.4, measurements=epoch.measurements), ref)

        fm = assemble_feature_matrix(rmat, per_link)
        assert fm.shape == (n, N_FEATURES) and fm.dtype == np.float64
        for row in range(n):
            want = fold_residual_row(values[row], row)
            assert fm[row, :N_RESIDUAL_SUMMARY].tobytes() == want.tobytes(), (n, row)
        assert fm[:, N_RESIDUAL_SUMMARY:].tobytes() == per_link.tobytes()
        assert np.isnan(fm[4, 4]) == np.isnan(np.delete(values[4], 4)).any()
        zeros.extend(np.signbit(v) for v in fm[2:4, 2:5].ravel() if v == 0.0)
    # zeros of both signs reached the min, max and median columns
    assert any(zeros) and not all(zeros)
