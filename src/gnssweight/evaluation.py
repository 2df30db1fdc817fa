"""Strategy comparison harness: per-epoch errors, CDF quantiles, reports."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .baselines import FdeConfig, SotaWeightParams, fde_solve
from .errors import EmptySamples, GnssWeightError, NonConvergence, NotEnoughMeasurements, SingularGeometry
from .featurize import EpochFeaturizer, feature_columns
from .geo import EcefPosition, ecef_to_enu, ecef_to_geodetic
from .model import Epoch, NavState
from .nn import make_labels, predict_weights, quality_to_weights
from .solver import SolveReport, equal_weight_fix, solve_wls_stack
from .solver import solve_wls  # noqa: F401  unused here; perfbench/tracing.py rebinds it by name

CSV_COLUMNS = ["session_id", "t", "strategy", "h_err_m", "v_err_m", "converged", "n_sv", "n_zero_weight"]

QUANTILES = (0.50, 0.68, 0.95)

# Weights at or below this are counted as effective exclusions.
ZERO_WEIGHT_CUTOFF = 1e-6

STRATEGIES = ("truth", "nn_full", "nn_residual", "fde_sota", "equal")


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


def evaluate_session(session, strategies, models: StrategyModels):
    """Error records for every (epoch, strategy) of one session, in order.

    Each epoch's equal-weight fix is solved once and shared: it gives the
    featurizer its rough position, warm-starts every weighted solve and
    is FDE's first round. When a learned strategy runs, the epoch is
    featurized and the fix is the all-ones row of its leave-one-out batch;
    FDE then also takes its first exclusion round from that batch. The
    weighted strategies (all but ``fde_sota``) solve as one stack.
    """
    needs_features = any(s in strategies for s in ("nn_full", "nn_residual"))
    fz = EpochFeaturizer() if needs_features else None

    records = []
    for epoch in session.epochs:
        if epoch.truth is None:
            continue
        if fz is not None:
            fm = fz.featurize(epoch)
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
            elif strategy in ("nn_full", "nn_residual"):
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

    Sessions evaluate independently; aggregation is ordered by session id
    so the output is identical for any job count.
    """
    sessions = sorted(dataset.split_sessions(split), key=lambda s: s.session_id)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(
                pool.map(
                    _evaluate_session_star,
                    [(s, strategies, models) for s in sessions],
                )
            )
    else:
        chunks = [evaluate_session(s, strategies, models) for s in sessions]
    records = [r for chunk in chunks for r in chunk]
    summaries = {
        strat: CdfSummary.from_records(strat, [r for r in records if r.strategy == strat])
        for strat in strategies
    }
    return records, summaries


def _evaluate_session_star(args):
    return evaluate_session(*args)


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
