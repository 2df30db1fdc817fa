"""Strategy comparison harness: per-epoch errors, CDF quantiles, reports."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .baselines import FdeConfig, SotaWeightParams, fde_solve
from .errors import (
    ConfigInvalid, EmptySamples, GnssWeightError, NonConvergence, NotEnoughMeasurements, SingularGeometry,
)
from .featurize import EpochFeaturizer, feature_columns
from .geo import EcefPosition, ecef_to_enu, ecef_to_geodetic
from .model import Epoch, NavState
from .nn import make_labels, predict_weights, quality_to_weights
from .residuals import solve_rows
from .solver import SolveReport, equal_weight_fix, solve_wls_stack
from .solver import solve_wls  # noqa: F401  unused here; perfbench/tracing.py rebinds it by name

CSV_COLUMNS = ["session_id", "t", "strategy", "h_err_m", "v_err_m", "converged", "n_sv", "n_zero_weight"]

QUANTILES = (0.50, 0.68, 0.95)

# Weights at or below this are counted as effective exclusions.
ZERO_WEIGHT_CUTOFF = 1e-6

STRATEGIES = ("truth", "nn_full", "nn_residual", "fde_sota", "equal")

# The strategies that featurize the epochs they score.
LEARNED = ("nn_full", "nn_residual")


@dataclass
class ErrorRecord:
    session_id: str
    t: float
    strategy: str
    h_err_m: float
    v_err_m: float
    converged: bool
    n_sv: int
    n_zero_weight: int


@dataclass
class CdfSummary:
    strategy: str
    quantiles: dict
    count: int
    failures: int

    @staticmethod
    def from_records(strategy: str, records) -> "CdfSummary":
        errs = sorted(r.h_err_m for r in records if r.converged)
        failures = sum(1 for r in records if not r.converged)
        q = {p: empirical_quantile(errs, p) for p in QUANTILES} if errs else {}
        return CdfSummary(strategy, q, len(errs), failures)


def position_errors(estimate, truth: EcefPosition) -> tuple[float, float]:
    """Horizontal and vertical (|up|) error of an estimate, meters."""
    pos = estimate.position if isinstance(estimate, NavState) else estimate
    enu = ecef_to_enu(pos, ecef_to_geodetic(truth))
    return float(np.hypot(enu.east, enu.north)), float(abs(enu.up))


def empirical_quantile(samples, p: float) -> float:
    """Linear interpolation between order statistics at rank p*(n-1)."""
    samples = np.sort(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise EmptySamples("quantile of an empty sample set")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    rank = p * (samples.size - 1)
    lo = int(np.floor(rank))
    hi = min(lo + 1, samples.size - 1)
    f = rank - lo
    return float(samples[lo] * (1.0 - f) + samples[hi] * f)


@dataclass
class StrategyModels:
    """Trained predictors and calibrated baseline parameters."""

    nn_full: tuple | None = None  # (LstmModel, FeatureNormalization)
    nn_residual: tuple | None = None
    sota: SotaWeightParams | None = None
    fde_cfg: FdeConfig = field(default_factory=FdeConfig)


def _failed_record(epoch: Epoch, strategy: str, n_zero: int = 0) -> ErrorRecord:
    nan = float("nan")
    return ErrorRecord(epoch.session_id, epoch.time, strategy, nan, nan, False, epoch.n, n_zero)


def _weighted_records(epoch: Epoch, weights: dict, fix: SolveReport | None) -> dict:
    """strategy -> ErrorRecord for each (strategy, weight vector) in ``weights``.

    The weighted solves run as one stack (``solve_wls_stack``), each
    warm-started from the equal-weight fix: strongly anisotropic weights
    (spreads of 1e7 and more) make cold-start damped iteration creep,
    while the weighted problem converges in a few steps from the fix.
    """
    init = fix.state if fix is not None else None
    reports = solve_wls_stack(epoch, list(weights.values()), init=init)
    records = {}
    for (strategy, w), rep in zip(weights.items(), reports):
        n_zero = int(np.sum(np.asarray(w) <= ZERO_WEIGHT_CUTOFF))
        if isinstance(rep, NonConvergence):
            state, converged = rep.report.state, False
        elif isinstance(rep, GnssWeightError):
            records[strategy] = _failed_record(epoch, strategy, n_zero)
            continue
        else:
            state, converged = rep.state, True
        h, v = position_errors(state, epoch.truth)
        records[strategy] = ErrorRecord(epoch.session_id, epoch.time, strategy, h, v, converged, epoch.n, n_zero)
    return records


def _fde_record(epoch: Epoch, models: StrategyModels, fix: SolveReport | None, loo) -> ErrorRecord:
    if fix is None:  # FDE's first round is this same failed solve
        return _failed_record(epoch, "fde_sota")
    try:
        res = fde_solve(epoch, models.fde_cfg, models.sota, fix=fix, loo=loo)
    except GnssWeightError:
        return _failed_record(epoch, "fde_sota")
    h, v = position_errors(res.report.state, epoch.truth)
    return ErrorRecord(epoch.session_id, epoch.time, "fde_sota", h, v, True, epoch.n, len(res.excluded))


def _scored_rows(sessions) -> list:
    """Per session, each epoch's entry of ``residuals.solve_rows``: the
    epochs ``evaluate_session`` scores (those with a truth position) are
    solved as one call, the others get None."""
    scored = [e for s in sessions for e in s.epochs if e.truth is not None]
    solved = iter(solve_rows(scored))
    return [[next(solved) if e.truth is not None else None for e in s.epochs] for s in sessions]


def evaluate_session(session, strategies, models: StrategyModels, rows=None):
    """Error records for every (epoch, strategy) of one session, in order.

    Each epoch's equal-weight fix is solved once and shared: it gives the
    featurizer its rough position, warm-starts every weighted solve and
    is FDE's first round. When a learned strategy runs, the epoch is
    featurized and the fix is the all-ones row of its leave-one-out batch;
    FDE then also takes its first exclusion round from that batch. The
    leave-one-out rows are ``rows``, one ``residuals.solve_rows`` entry
    per epoch of the session, solved here for the whole session when not
    given. The weighted strategies (all but ``fde_sota``) solve as one
    stack.
    """
    needs_features = any(s in strategies for s in LEARNED)
    fz = EpochFeaturizer() if needs_features else None
    if needs_features and rows is None:
        rows = _scored_rows([session])[0]

    records = []
    for k, epoch in enumerate(session.epochs):
        if epoch.truth is None:
            continue
        if fz is not None:
            fm = fz.featurize(epoch, rows[k])
            fix, loo = fz.fix, fz.matrix
        else:
            fm = loo = None
            try:
                fix = equal_weight_fix(epoch)
            except (NotEnoughMeasurements, SingularGeometry):
                fix = None
        weights = {}  # the weighted strategies' weights, solved as one stack
        for strategy in strategies:
            if strategy == "equal":
                weights[strategy] = np.ones(epoch.n)
            elif strategy == "truth":
                weights[strategy] = quality_to_weights(make_labels(epoch))
            elif strategy in LEARNED:
                pair = models.nn_full if strategy == "nn_full" else models.nn_residual
                if pair is None:
                    raise ValueError(f"strategy {strategy} requires a trained model")
                if fm is not None:
                    model, norm = pair
                    mode = "full" if strategy == "nn_full" else "residual"
                    weights[strategy] = predict_weights(model, norm.apply(fm[:, feature_columns(mode)]))
            elif strategy == "fde_sota":
                if models.sota is None:
                    raise ValueError("strategy fde_sota requires calibrated parameters")
            else:
                raise ValueError(f"unknown strategy {strategy!r}")
        solved = _weighted_records(epoch, weights, fix) if weights else {}
        for strategy in strategies:
            if strategy in solved:
                records.append(solved[strategy])
            elif strategy == "fde_sota":
                records.append(_fde_record(epoch, models, fix, loo))
            else:  # a learned strategy on an epoch without features
                records.append(_failed_record(epoch, strategy))
    return records


def compare_strategies(dataset, strategies, models: StrategyModels,
                       split: str = "test", jobs: int = 1):
    """Run every strategy over the split; returns (records, summaries).

    The sessions, sorted by id, are split into ``min(jobs, sessions)``
    contiguous groups (``session_groups``), one worker process each when
    there are several. When a learned strategy runs, a group solves the
    leave-one-out rows of all its epochs in a few kernel calls before
    evaluating its sessions in order. Each row has the bits of its own
    solve and sessions evaluate independently, so the output is identical
    for any job count. ``jobs`` below 1 raises ConfigInvalid.
    """
    sessions = sorted(dataset.split_sessions(split), key=lambda s: s.session_id)
    groups = session_groups(sessions, jobs)
    if len(groups) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(groups)) as pool:
            chunks = list(pool.map(_evaluate_group, groups, repeat(strategies), repeat(models)))
    else:
        chunks = [_evaluate_group(g, strategies, models) for g in groups]
    records = [r for chunk in chunks for r in chunk]
    summaries = {
        strat: CdfSummary.from_records(strat, [r for r in records if r.strategy == strat])
        for strat in strategies
    }
    return records, summaries


def session_groups(sessions, jobs: int) -> list:
    """``sessions`` cut into ``min(jobs, len(sessions))`` contiguous groups
    whose sizes differ by at most one; raises ConfigInvalid when ``jobs``
    is below 1."""
    if jobs < 1:
        raise ConfigInvalid(f"jobs must be at least 1, got {jobs}")
    k = min(jobs, len(sessions))
    return [sessions[i * len(sessions) // k:(i + 1) * len(sessions) // k] for i in range(k)]


def _evaluate_group(sessions, strategies, models: StrategyModels) -> list:
    """The records of ``sessions`` in order, their leave-one-out rows solved
    together when a learned strategy runs."""
    needs_features = any(s in strategies for s in LEARNED)
    rows = _scored_rows(sessions) if needs_features else [None] * len(sessions)
    return [r for s, s_rows in zip(sessions, rows) for r in evaluate_session(s, strategies, models, s_rows)]


def write_error_csv(records, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.session_id,
                    format(r.t, ".17g"),
                    r.strategy,
                    format(r.h_err_m, ".17g"),
                    format(r.v_err_m, ".17g"),
                    int(r.converged),
                    r.n_sv,
                    r.n_zero_weight,
                ]
            )


def read_error_csv(path):
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            records.append(
                ErrorRecord(
                    session_id=row["session_id"],
                    t=float(row["t"]),
                    strategy=row["strategy"],
                    h_err_m=float(row["h_err_m"]),
                    v_err_m=float(row["v_err_m"]),
                    converged=bool(int(row["converged"])),
                    n_sv=int(row["n_sv"]),
                    n_zero_weight=int(row["n_zero_weight"]),
                )
            )
    return records


def summary_dict(summaries) -> dict:
    """JSON-ready structure with quantiles and failure counts per strategy."""
    return {
        strat: {
            "count": s.count,
            "failures": s.failures,
            "quantiles_h_m": {str(p): s.quantiles.get(p) for p in QUANTILES},
        }
        for strat, s in summaries.items()
    }
