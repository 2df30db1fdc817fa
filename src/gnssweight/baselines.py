"""Reference weighting strategies: equal weights, the parametric
elevation/C-over-N0 sigma model, and residual-test fault exclusion."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySplit, HorizonSingularity, NotEnoughMeasurements, SingularGeometry
from .geo import ecef_to_geodetic, elevation_angles
from .model import Epoch
from .solver import SolveReport, jacobian, solve_runs
from .solver import solve_wls  # noqa: F401  unused here; perfbench/tracing.py rebinds it by name

DEFAULT_ELEVATION_MASK = math.radians(5.0)

# median(chi2_1) — rescales a median of squared errors to a variance.
_CHI2_MEDIAN = 0.4549364231195724


@dataclass(frozen=True)
class SotaWeightParams:
    """Coefficients of the parametric variance model.

    sigma2(theta, cn0) = (z + c / cn0_linear) / sin^2(theta)
    with cn0 as a linear power ratio (10^(dBHz/10)).
    """

    sigma_z2: float
    sigma_c2: float


@dataclass(frozen=True)
class FdeConfig:
    threshold: float = 3.0  # normalized residual
    max_exclusions: int = 8
    min_retained: int = 6
    noise_sigma_m: float = 1.0  # nominal sigma used to standardize residuals


def cn0_linear(cn0_dbhz) -> np.ndarray:
    return 10.0 ** (np.asarray(cn0_dbhz, dtype=float) / 10.0)


def sota_sigma2(theta: float, cn0_dbhz: float, p: SotaWeightParams) -> float:
    """Parametric pseudorange variance, m^2."""
    if theta <= DEFAULT_ELEVATION_MASK:
        raise HorizonSingularity(f"elevation {theta:.4f} rad at or below the mask")
    s = math.sin(theta)
    return (p.sigma_z2 + p.sigma_c2 / cn0_linear(cn0_dbhz)) / (s * s)


def sota_weights(thetas, cn0s, p: SotaWeightParams) -> np.ndarray:
    """1/sigma^2 per link; links at or below the mask get weight 0."""
    w = np.zeros(len(thetas))
    for i, (t, c) in enumerate(zip(thetas, cn0s)):
        if t > DEFAULT_ELEVATION_MASK:
            w[i] = 1.0 / sota_sigma2(t, c, p)
    return w


def calibrate_sota(thetas, cn0s, errors_m) -> SotaWeightParams:
    """Fit the variance model to observed true-position residuals.

    Samples are binned over (elevation, C/N0); each bin contributes its
    median squared error (rescaled to a variance, which keeps heavy NLOS
    tails from inflating the fit) and the model is solved by nonnegative
    least squares on sin^2(theta) * sigma2, one row per populated bin in
    sorted (elevation bin, C/N0 bin) order; ``_nnls2`` enumerates the
    active sets of the two coefficients.
    """
    thetas = np.asarray(thetas, dtype=float)
    cn0s = np.asarray(cn0s, dtype=float)
    errors = np.asarray(errors_m, dtype=float)
    if thetas.size == 0:
        raise EmptySplit("no samples to calibrate on")

    t_edges = np.linspace(DEFAULT_ELEVATION_MASK, math.pi / 2, 7)
    c_edges = np.quantile(cn0s, np.linspace(0, 1, 7))
    ti = np.clip(np.digitize(thetas, t_edges) - 1, 0, 5)
    ci = np.clip(np.digitize(cn0s, c_edges) - 1, 0, 5)

    rows = []
    targets = []
    counts = []
    for t_bin, c_bin in sorted(set(zip(ti.tolist(), ci.tolist()))):
        sel = (ti == t_bin) & (ci == c_bin)
        if np.sum(sel) < 5:
            continue
        var = np.median(errors[sel] ** 2) / _CHI2_MEDIAN
        s2 = np.sin(thetas[sel]) ** 2
        # regress sin^2(theta) * sigma2 = z + c/cn0
        targets.append(var * float(np.mean(s2)))
        rows.append([1.0, float(np.mean(1.0 / cn0_linear(cn0s[sel])))])
        counts.append(float(np.sum(sel)))
    if not rows:
        raise EmptySplit("not enough populated bins for calibration")
    w = np.sqrt(np.array(counts))
    z, c = _nnls2(np.array(rows) * w[:, None], np.array(targets) * w)
    return SotaWeightParams(float(z), float(c))


def _nnls2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin |a x - b| over x >= 0 for a of two nonzero columns.

    Two unknowns have four active sets (Lawson & Hanson, "Solving Least
    Squares Problems", 1974, ch. 23). A nonnegative unconstrained fit is
    optimal; otherwise some optimum has a coefficient at zero, so it is the
    better of the two one-column fits, each clamped at zero.
    """
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    if np.all(x >= 0.0):
        return x
    fits = [np.zeros(2), np.zeros(2)]
    for j, fit in enumerate(fits):
        fit[j] = max(a[:, j] @ b / (a[:, j] @ a[:, j]), 0.0)
    return min(fits, key=lambda fit: np.linalg.norm(a @ fit - b))


@dataclass
class FdeResult:
    report: object  # SolveReport of the final weighted solve
    excluded: list = field(default_factory=list)  # indices in canonical order


def fde_solve(epoch: Epoch, cfg: FdeConfig, params: SotaWeightParams, fix: SolveReport | None = None) -> FdeResult:
    """Iterative residual-test exclusion, then a parametric-weight solve.

    Each round solves the surviving set with equal weights, standardizes
    the post-fit residuals by their linearized variance, and drops the
    worst offender while it exceeds the threshold. Survivors are finally
    solved with ``sota_weights`` from the parametric model. ``fix`` is the
    epoch's equal-weight fix, or None to solve it here as the first round.
    This is ``fde_run`` driven by ``solver.solve_runs``; it raises
    NotEnoughMeasurements below ``min_retained`` + 1 links, SingularGeometry
    for a singular solve.
    """
    return solve_runs([epoch], [fde_run(epoch, cfg, params, fix)])[0]


def _solve(w: np.ndarray, start):
    """One solve of ``fde_run``, as a ``solver.solve_runs`` run: the report
    of the weights ``w`` from ``start``, or SingularGeometry for a row
    without a solution."""
    rep, = yield w[None], start
    if rep is None:  # every FDE problem has at least state_dim positive weights: it is singular
        raise SingularGeometry("weighted normal matrix condition number above limit")
    return rep


def fde_run(epoch: Epoch, cfg: FdeConfig, params: SotaWeightParams, fix: SolveReport | None):
    """``fde_solve`` on one epoch as a ``solver.solve_runs`` run: it yields
    each problem it needs solved, an exclusion round (from the cold start)
    or its final solve, and returns the FdeResult."""
    n = epoch.n
    min_keep = max(cfg.min_retained, epoch.state_dim())
    if n < min_keep + 1:
        raise NotEnoughMeasurements(f"N={n} below min retained {min_keep} + 1")

    active = np.ones(n, dtype=bool)
    excluded: list[int] = []
    rep = fix if fix is not None else (yield from _solve(active.astype(float), None))
    while int(active.sum()) > min_keep and len(excluded) < cfg.max_exclusions:
        # leverage of each active row in the equal-weight linear model
        H = jacobian(rep.state, epoch)[active]
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
        rep = yield from _solve(active.astype(float), None)

    # parametric weights on the survivors
    survivors = [epoch.measurements[i] for i in np.flatnonzero(active)]
    thetas = elevation_angles(epoch.sat_array()[active], ecef_to_geodetic(rep.state.position))
    w = np.zeros(n)
    w[active] = sota_weights(thetas, [m.cn0 for m in survivors], params)
    if int(np.sum(w > 0)) < epoch.state_dim():
        w = active.astype(float)  # degenerate masking: fall back to equal weights
    # warm start from the survivor fix: anisotropic weights converge in
    # a few steps from there where a cold start can creep for dozens
    final = yield from _solve(w, rep.state)
    return FdeResult(report=final, excluded=sorted(excluded))
