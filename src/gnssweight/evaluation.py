"""Strategy comparison harness: per-epoch errors, CDF quantiles, reports."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .baselines import FdeConfig, SotaWeightParams, fde_run
from .baselines import fde_solve  # noqa: F401  unused here; perfbench/tracing.py rebinds it by name
from .errors import ConfigInvalid, EmptySamples, GnssWeightError, ParseError
from .featurize import feature_columns, featurize_sessions
from .geo import EcefPosition, ecef_to_enu, ecef_to_geodetic
from .model import Epoch, NavState
from .nn import make_labels, predict_weights, quality_to_weights
from .solver import SolveReport, solve_runs
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


def _record(epoch: Epoch, strategy: str, report: SolveReport | None = None, n_zero: int = 0) -> ErrorRecord:
    """``strategy``'s record of ``report``, or of a failed solve (NaN errors) without one."""
    h = v = float("nan")
    if report is not None:
        h, v = position_errors(report.state, epoch.truth)
    return ErrorRecord(epoch.session_id, epoch.time, strategy, h, v, report is not None and report.converged,
                       epoch.n, n_zero)


def check_strategy_names(strategies) -> None:
    """ConfigInvalid, naming the config key ``evaluate.strategies``, for an
    unknown or repeated strategy (a repeated one would write each of its
    records twice)."""
    for i, strategy in enumerate(strategies):
        if strategy not in STRATEGIES:
            raise ConfigInvalid(f"'evaluate.strategies' entry {strategy!r} not one of {STRATEGIES}")
        if strategy in strategies[:i]:
            raise ConfigInvalid(f"'evaluate.strategies' repeats {strategy!r}")


def _check_strategies(strategies, models: StrategyModels) -> None:
    """``check_strategy_names``, then ValueError for a strategy whose model
    or calibrated parameters are missing."""
    check_strategy_names(strategies)
    for strategy in strategies:
        if strategy in LEARNED and getattr(models, strategy) is None:
            raise ValueError(f"strategy {strategy} requires a trained model")
        if strategy == "fde_sota" and models.sota is None:
            raise ValueError("strategy fde_sota requires calibrated parameters")


def evaluate_session(session, strategies, models: StrategyModels):
    """Error records for every (epoch, strategy) of one session, in order:
    ``compare_strategies``'s check and lockstep runs on this session alone."""
    _check_strategies(strategies, models)
    return _evaluate_group([session], strategies, models)


def compare_strategies(dataset, strategies, models: StrategyModels, jobs: int = 1):
    """Run every strategy over the test split; returns (records, summaries).

    The strategies and models are checked first, once: an unknown or
    repeated strategy raises ConfigInvalid (``check_strategy_names``), a
    missing model or calibration ValueError. The sessions, sorted by id,
    are then split into ``min(jobs, sessions)`` contiguous groups
    (``session_groups``), one worker process each when there are several,
    and each group's epochs are evaluated in lockstep (``_evaluate_group``).
    Each kernel row has the bits of its own solve and sessions featurize
    independently, so the output is identical for any job count. ``jobs``
    below 1 raises ConfigInvalid.
    """
    _check_strategies(strategies, models)
    sessions = sorted(dataset.split_sessions("test"), key=lambda s: s.session_id)
    groups = session_groups(sessions, jobs)
    if len(groups) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(groups)) as pool:
            chunks = list(pool.map(_evaluate_group, groups, repeat(strategies), repeat(models)))
    else:
        chunks = [_evaluate_group(g, strategies, models) for g in groups]
    records = [r for chunk in chunks for r in chunk]
    return records, summarize(records, strategies)


def summarize(records, strategies) -> dict:
    """strategy -> CdfSummary of its records, for each of ``strategies`` in order."""
    return {s: CdfSummary.from_records(s, [r for r in records if r.strategy == s]) for s in strategies}


def session_groups(sessions, jobs: int) -> list:
    """``sessions`` cut into ``min(jobs, len(sessions))`` contiguous groups
    whose sizes differ by at most one; raises ConfigInvalid when ``jobs``
    is below 1."""
    if jobs < 1:
        raise ConfigInvalid(f"jobs must be at least 1, got {jobs}")
    k = min(jobs, len(sessions))
    return [sessions[i * len(sessions) // k:(i + 1) * len(sessions) // k] for i in range(k)]


def _evaluate_group(sessions, strategies, models: StrategyModels) -> list:
    """The records of every scored epoch (one with a truth position) of
    ``sessions``, in (session, epoch, strategy) order.

    The caller has checked the strategies and models
    (``_check_strategies``). When a learned strategy runs,
    ``featurize.featurize_sessions`` solves every epoch's
    equal-weight fix and leave-one-out rows at once and featurizes each
    session in order. Each epoch then becomes one ``_epoch_run``, and
    ``solver.solve_runs`` drives them all in lockstep, so each pass solves
    the same step of every epoch in a few kernel calls.
    """
    scored = [[e for e in s.epochs if e.truth is not None] for s in sessions]
    epochs = [e for s in scored for e in s]
    featurized = [None] * len(epochs)
    if any(s in LEARNED for s in strategies):
        featurized = featurize_sessions(scored)  # (fm, fix) per epoch
    runs = [_epoch_run(e, strategies, models, f) for e, f in zip(epochs, featurized)]
    return [r for records in solve_runs(epochs, runs) for r in records]


def _epoch_run(epoch: Epoch, strategies, models: StrategyModels, featurized):
    """The records of one epoch, in strategy order, as a ``solver.solve_runs`` run.

    ``featurized`` is the epoch's (feature matrix, fix) from
    ``featurize_sessions``, or None when no learned strategy runs. The run
    then solves the fix first, as the epoch's all-ones problem. The fix is
    shared by every strategy:
    - The weighted strategies (all but ``fde_sota``) are one problem, each
      row warm-started from the fix: strongly anisotropic weights (spreads
      of 1e7 and more) make cold-start damped iteration creep, while the
      weighted problem converges in a few steps from the fix.
    - FDE (``baselines.fde_run``) starts from the fix.

    Without a fix, ``equal``'s problem would be the fix's own, and FDE's
    first round too: both are recorded as failed without solving it again.
    """
    if featurized is not None:
        fm, fix = featurized
    else:
        fm = None
        fix, = yield np.ones((1, epoch.n)), None
    ws = {}  # strategy -> weights, for the weighted strategies this epoch solves
    for strategy in strategies:
        if strategy == "equal" and fix is not None:
            ws[strategy] = np.ones(epoch.n)
        elif strategy == "truth":
            ws[strategy] = quality_to_weights(make_labels(epoch))
        elif strategy in LEARNED and fm is not None:
            model, norm = getattr(models, strategy)
            mode = "full" if strategy == "nn_full" else "residual"
            ws[strategy] = predict_weights(model, norm.apply(fm[:, feature_columns(mode)]))
    records = {}
    if ws:
        reports = yield np.array(list(ws.values())), fix.state if fix is not None else None
        for (strategy, w), rep in zip(ws.items(), reports):
            records[strategy] = _record(epoch, strategy, rep, int(np.sum(w <= ZERO_WEIGHT_CUTOFF)))
    if "fde_sota" in strategies and fix is not None:
        try:
            res = yield from fde_run(epoch, models.fde_cfg, models.sota, fix)
        except GnssWeightError:
            pass  # a failed record, below
        else:
            records["fde_sota"] = _record(epoch, "fde_sota", res.report, len(res.excluded))
    # a failed record for each strategy not solved: a learned one without
    # features, `equal` without a fix, a failed FDE
    return [records.get(s) or _record(epoch, s) for s in strategies]


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
    """The records of an ``errors.csv``; ParseError, with the 1-based line
    number, for a missing column or a malformed value: ``converged`` other
    than 0 or 1, or a negative ``n_sv`` or ``n_zero_weight``, among them."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ParseError(1, f"{path} lacks the columns {', '.join(missing)}")
        for row in reader:
            try:
                converged, n_sv, n_zero = (int(row[c]) for c in ("converged", "n_sv", "n_zero_weight"))
                if converged not in (0, 1):
                    raise ValueError(f"converged is {converged}, not 0 or 1")
                if n_sv < 0 or n_zero < 0:
                    raise ValueError(f"negative count: n_sv {n_sv}, n_zero_weight {n_zero}")
                records.append(
                    ErrorRecord(
                        session_id=row["session_id"],
                        t=float(row["t"]),
                        strategy=row["strategy"],
                        h_err_m=float(row["h_err_m"]),
                        v_err_m=float(row["v_err_m"]),
                        converged=bool(converged),
                        n_sv=n_sv,
                        n_zero_weight=n_zero,
                    )
                )
            except (TypeError, ValueError) as e:
                raise ParseError(reader.line_num, f"{path}: {e}") from e
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
