import numpy as np
import pytest

from gnssweight import solver
from gnssweight.dataio import Dataset, Session
from gnssweight.errors import EmptySplit
from gnssweight.nn import make_labels
from gnssweight.featurize import (
    N_FEATURES,
    N_RESIDUAL_SUMMARY,
    EpochFeaturizer,
    FeatureNormalization,
    dataset_samples,
    feature_columns,
    featurize_sessions,
    fit_normalization,
    fold_residual_row,
    normalized_split,
)
from gnssweight.residuals import GAMMA, build_residual_matrix
from gnssweight.sim import ScenarioConfig, generate_session
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
    rmat = build_residual_matrix(epoch)
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
    assert fz.skipped == 1


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
                if fm is not None:
                    expect[session.split].append((fm, make_labels(epoch)))
            skipped += fz.skipped
    assert skipped > 0 and len(expect["train"]) > 0

    monkeypatch.setattr(solver, "MAX_ROWS_PER_CALL", 7)
    got = dataset_samples(Dataset(seed=0, sessions=sessions))
    for split in expect:
        assert [(fm.tobytes(), lab.tobytes()) for fm, lab in got[split]] == \
            [(fm.tobytes(), lab.tobytes()) for fm, lab in expect[split]]
