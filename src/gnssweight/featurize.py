"""Assembly of the per-epoch network input matrix.

Each epoch becomes an N x 14 matrix: 8 summary statistics of the
leave-one-out residual row followed by the 6 per-link signal features.
The residual-only variant keeps the first 8 columns. Rows are z-scored
with statistics frozen from the training split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySplit
from .features import N_PER_LINK_FEATURES, TrackingHistory
from .geo import ecef_to_geodetic
from .model import Epoch
from .nn import make_labels
from .residuals import GAMMA, build_residual_matrix, ResidualMatrix, solve_rows
from .solver import SolveReport, row_report
from .solver import solve_wls  # noqa: F401  unused here; perfbench/tracing.py rebinds it by name

N_RESIDUAL_SUMMARY = 8
N_FEATURES = N_RESIDUAL_SUMMARY + N_PER_LINK_FEATURES


def fold_residual_row(row: np.ndarray, exclude: int) -> np.ndarray:
    """Fixed-width summary of one leave-one-out residual row.

    Off-diagonal entries are clipped to +-GAMMA so the exclusion sentinel
    bounds the input range. Returns [mean, std, min, max, median,
    mean |.|, #(|.| > 5 m), #(|.| > 20 m)]. ``assemble_feature_matrix``
    folds every row at once with the same arithmetic; this is its
    one-row reference.
    """
    off = np.delete(row, exclude)
    off = np.clip(off, -GAMMA, GAMMA)
    a = np.abs(off)
    return np.array(
        [
            off.mean(),
            off.std(),
            off.min(),
            off.max(),
            np.median(off),
            a.mean(),
            float(np.sum(a > 5.0)),
            float(np.sum(a > 20.0)),
        ]
    )


def assemble_feature_matrix(rmat: ResidualMatrix, per_link: np.ndarray) -> np.ndarray:
    """N x 14 features: every row of ``rmat`` folded as ``fold_residual_row``
    folds it, then the (N, 6) per-link block of ``TrackingHistory``.

    The rows are folded at once: ``mean``, ``std``, ``min`` and ``max`` by
    the ufunc reductions along the rows that those functions make, without
    their Python wrappers, and the median by ``np.median`` along the rows,
    so each statistic keeps the bits of its one-row call, including
    ``median``'s NaN for a row holding one.
    """
    n = rmat.n
    m = n - 1  # entries per row
    # the off-diagonal entries row by row: without the first entry, the
    # flat matrix cut into rows of n + 1 ends each row on the diagonal
    off = rmat.values.ravel()[1:].reshape(m, n + 1)[:, :n]
    off = np.minimum(np.maximum(off, -GAMMA), GAMMA).reshape(n, m)  # np.clip's values
    a = np.abs(off)
    fm = np.empty((n, N_FEATURES))
    fm[:, 0] = mean = np.add.reduce(off, axis=1) / m
    dev = off - mean[:, None]
    fm[:, 1] = np.sqrt(np.add.reduce(dev * dev, axis=1) / m)
    fm[:, 2] = np.minimum.reduce(off, axis=1)
    fm[:, 3] = np.maximum.reduce(off, axis=1)
    fm[:, 5] = np.add.reduce(a, axis=1) / m
    fm[:, 6] = np.add.reduce(a > 5.0, axis=1)
    fm[:, 7] = np.add.reduce(a > 20.0, axis=1)
    fm[:, 4] = np.median(off, axis=1, overwrite_input=True)  # last: it reorders each row
    fm[:, N_RESIDUAL_SUMMARY:] = per_link
    return fm


def feature_columns(mode: str) -> slice:
    if mode == "full":
        return slice(0, N_FEATURES)
    if mode == "residual":
        return slice(0, N_RESIDUAL_SUMMARY)
    raise ValueError(f"unknown feature mode {mode!r}")


@dataclass
class FeatureNormalization:
    mean: np.ndarray
    std: np.ndarray

    @staticmethod
    def fit(rows: np.ndarray) -> "FeatureNormalization":
        mean = rows.mean(axis=0)
        std = rows.std(axis=0)
        std[std == 0.0] = 1.0
        return FeatureNormalization(mean, std)

    def apply(self, fm: np.ndarray) -> np.ndarray:
        return (fm - self.mean) / self.std


class EpochFeaturizer:
    """Stateful per-session featurizer (owns the C/N0 tracking history).

    ``featurize`` returns the raw (unnormalized) feature matrix, or None
    when the epoch cannot support the leave-one-out construction. It
    takes the epoch's entry of ``residuals.solve_rows`` when the caller
    solved the rows of many epochs at once (``featurize_sessions``), and
    solves the epoch's rows itself otherwise. The epoch's equal-weight fix
    is that entry's all-ones solve (``solver.row_report``), which an
    epoch with too few links for the matrix (N <= state dimension) has
    too. When the fix fails the tracking window is not advanced,
    since elevations need a receiver position; when only the
    leave-one-out matrix fails it is, so later epochs see a correct
    history. After each call ``fix`` holds that epoch's fix, None when it
    could not be formed, so that a caller can reuse it.
    """

    def __init__(self):
        self.history = TrackingHistory()
        self.fix: SolveReport | None = None

    def featurize(self, epoch: Epoch, rows=None) -> np.ndarray | None:
        """Feature matrix of ``epoch``, or None when it is skipped."""
        if rows is None:
            rows = solve_rows([epoch])[0]
        self.fix = fix = row_report(epoch, *rows[0])
        if fix is not None:
            per_link = self.history.update_and_extract(epoch, ecef_to_geodetic(fix.state.position))
            if rows[1]:
                return assemble_feature_matrix(build_residual_matrix(epoch, rows), per_link)
        return None


def featurize_sessions(sessions) -> list:
    """(feature matrix, fix) of every epoch of ``sessions``, in order.

    ``sessions`` is a list of epoch sequences. The leave-one-out rows and
    fixes of all their epochs are solved first, as one
    ``residuals.solve_rows`` call (a few kernel calls: one per clock count
    and ``solver.MAX_ROWS_PER_CALL`` rows); then each session runs through
    its own ``EpochFeaturizer`` in order. Each entry holds what the
    featurizer returned and kept for that epoch: the feature matrix (None
    when the epoch is skipped) and the equal-weight fix (None when it
    could not be formed).
    """
    rows = iter(solve_rows([e for epochs in sessions for e in epochs]))
    out = []
    for epochs in sessions:
        fz = EpochFeaturizer()
        for epoch in epochs:
            fm = fz.featurize(epoch, next(rows))
            out.append((fm, fz.fix))
    return out


def dataset_samples(dataset):
    """Raw samples of the fitting splits: {'train': [...], 'val': [...]}.

    A sample is (feature_matrix, labels) of a featurized epoch with a
    truth position, in order, from ``featurize_sessions``; an epoch without
    one still advances its session's C/N0 tracker. Test sessions are
    skipped: ``evaluation`` featurizes them itself, sharing each epoch's
    equal-weight fix with the strategies it runs.
    """
    splits = {"train": [], "val": []}
    sessions = [s for s in dataset.sessions if s.split in splits]
    epochs = [(s.split, e) for s in sessions for e in s.epochs]
    for (split, epoch), (fm, _) in zip(epochs, featurize_sessions([s.epochs for s in sessions])):
        if fm is not None and epoch.truth is not None:
            splits[split].append((fm, make_labels(epoch)))
    return splits


def normalized_split(samples, norm: FeatureNormalization, mode: str):
    """(fm, labels) pairs restricted to the mode's columns and z-scored."""
    cols = feature_columns(mode)
    return [(norm.apply(fm[:, cols]), labels) for fm, labels in samples]


def fit_normalization(train_samples, mode: str) -> FeatureNormalization:
    if not train_samples:
        raise EmptySplit("no featurized training epochs to fit the normalization on")
    cols = feature_columns(mode)
    rows = np.vstack([fm[:, cols] for fm, _ in train_samples])
    return FeatureNormalization.fit(rows)
