"""Weighted least-squares position solver (damped Gauss-Newton)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NotEnoughMeasurements, NonConvergence, SingularGeometry, ZeroRange
from .geo import SPEED_OF_LIGHT, EcefPosition, GeodeticPosition, geodetic_to_ecef
from .model import Epoch, NavState

# Cold-start iterate: a point on the ellipsoid surface, zero clock biases.
# Single-epoch operation cannot assume any warm start.
_DEFAULT_START = geodetic_to_ecef(GeodeticPosition(0.0, 0.0, 0.0))


@dataclass
class SolveReport:
    state: NavState
    iterations: int
    converged: bool
    final_cost: float
    post_fit_residuals: np.ndarray


def state_to_vector(epoch: Epoch, state: NavState) -> np.ndarray:
    """[x, y, z, c*delta_k ...] with clock columns in epoch constellation order."""
    consts = epoch.constellations()
    v = np.zeros(3 + len(consts))
    v[0] = state.position.x
    v[1] = state.position.y
    v[2] = state.position.z
    for k, c in enumerate(consts):
        v[3 + k] = SPEED_OF_LIGHT * state.clock_bias.get(c, 0.0)
    return v


def vector_to_state(epoch: Epoch, v: np.ndarray) -> NavState:
    consts = epoch.constellations()
    biases = {c: float(v[3 + k]) / SPEED_OF_LIGHT for k, c in enumerate(consts)}
    return NavState(EcefPosition(float(v[0]), float(v[1]), float(v[2])), biases)


def jacobian(state: NavState, epoch: Epoch) -> np.ndarray:
    """Analytic Jacobian of the stacked observation functions.

    Row i: unit line-of-sight (receiver minus satellite, normalized) on
    the position columns, 1 on the measurement's clock column, zero
    elsewhere. Shape N x (3 + #constellations); the clock columns are in
    meters (c * delta_k), the kernel's state layout.
    """
    consts = epoch.constellations()
    sat = epoch.sat_array()
    rx = state.position.as_array()
    diff = rx[None, :] - sat
    rng = np.linalg.norm(diff, axis=1)
    if np.any(rng == 0.0):
        raise ZeroRange("satellite coincides with receiver position")
    J = np.zeros((epoch.n, 3 + len(consts)))
    J[:, :3] = diff / rng[:, None]
    idx = epoch.const_index()
    J[np.arange(epoch.n), 3 + idx] = 1.0
    return J


def predicted_pseudoranges(epoch: Epoch, x: np.ndarray) -> np.ndarray:
    """Vectorized observation function over the epoch at kernel-layout x.

    x is one state (d,) or a stack of states (B, d); the result is (N,)
    or (B, N).
    """
    sat = epoch.sat_array()
    rng = np.linalg.norm(x[..., None, :3] - sat, axis=-1)
    return rng + x[..., 3 + epoch.const_index()]


def _checked_weights(epoch: Epoch, weights) -> np.ndarray:
    """``weights`` as a float vector, after ``solve_wls``'s pre-checks."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (epoch.n,):
        raise ValueError(f"weight vector length {w.shape} != N={epoch.n}")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise ValueError("weights must be finite and nonnegative")
    dim = epoch.state_dim()
    if int(np.sum(w > 0.0)) < dim:
        raise NotEnoughMeasurements(
            f"{int(np.sum(w > 0.0))} positive-weight measurements for {dim} unknowns"
        )
    return w


def _start(epoch: Epoch, init: NavState | None) -> np.ndarray:
    """Kernel-layout start: ``init``, or the cold start ``_DEFAULT_START``."""
    if init is not None:
        return state_to_vector(epoch, init)
    x0 = np.zeros(epoch.state_dim())
    x0[:3] = _DEFAULT_START.as_array()
    return x0


def row_report(epoch: Epoch, x, iterations, status, cost) -> SolveReport:
    """The SolveReport of one kernel row, or the error ``solve_wls`` raises for it.

    ``(x, iterations, status, cost)`` is one entry of the
    ``_kernels.lm_solve_batch`` arrays (or the ``lm_solve`` tuple) for the
    full epoch. Raises SingularGeometry for a singular row and
    NonConvergence, carrying the iterate's report, for a capped one.
    """
    if status == _kernels.STATUS_SINGULAR:
        raise SingularGeometry("weighted normal matrix condition number above limit")
    report = SolveReport(
        state=vector_to_state(epoch, x),
        iterations=int(iterations),
        converged=status == _kernels.STATUS_CONVERGED,
        final_cost=float(cost),
        post_fit_residuals=epoch.pr_array() - predicted_pseudoranges(epoch, x),
    )
    if status == _kernels.STATUS_MAX_ITER:
        raise NonConvergence(f"no convergence in {_kernels.MAX_ITERATIONS} iterations", report=report)
    return report


def solve_wls(epoch: Epoch, weights, init: NavState | None = None) -> SolveReport:
    """Minimize the weighted sum of squared pseudorange residuals.

    Raises NotEnoughMeasurements when the positive-weight rows cannot
    determine the state, SingularGeometry on an ill-conditioned normal
    matrix, and NonConvergence (carrying the best iterate, with
    ``converged`` False) when the cost is still falling after
    ``_kernels.MAX_ITERATIONS`` iterations. A solve that stops because no
    step lowers the cost any further (the rounding floor) has converged
    and returns normally. The kernel's other settings are the constants
    next to ``MAX_ITERATIONS`` in ``_kernels``.
    """
    w = _checked_weights(epoch, weights)
    row = _kernels.lm_solve(
        epoch.sat_array(), epoch.pr_array(), w, epoch.const_index(), epoch.state_dim() - 3,
        _start(epoch, init), _kernels.MAX_ITERATIONS,
    )
    return row_report(epoch, *row)


def solve_wls_stack(epoch: Epoch, weights, init: NavState | None = None) -> list:
    """``solve_wls(epoch, w, init)`` for each ``w`` in ``weights``, as one kernel call.

    Entry k is weights[k]'s SolveReport, or the GnssWeightError that
    ``solve_wls`` would raise for it (NotEnoughMeasurements,
    SingularGeometry, or NonConvergence with its report), returned rather
    than raised. A weight vector of the wrong shape or with a negative or
    non-finite entry raises ValueError, as in ``solve_wls``. Every entry
    has the bits of its own ``solve_wls``: the rows run in lockstep in
    ``_kernels.lm_solve_batch``, which gives each row the bits of a stack
    of one.
    """
    out: list = [None] * len(weights)
    rows, ws = [], []
    for k, weight in enumerate(weights):
        try:
            ws.append(_checked_weights(epoch, weight))
            rows.append(k)
        except NotEnoughMeasurements as e:
            out[k] = e
    if rows:
        x0 = np.tile(_start(epoch, init), (len(rows), 1))
        batch = _kernels.lm_solve_batch(
            epoch.sat_array()[None], epoch.pr_array()[None], np.array(ws), epoch.const_index()[None],
            epoch.state_dim() - 3, x0, _kernels.MAX_ITERATIONS,
        )
        for i, k in enumerate(rows):
            try:
                out[k] = row_report(epoch, *(a[i] for a in batch))
            except (SingularGeometry, NonConvergence) as e:
                out[k] = e
    return out


def equal_weight_fix(epoch: Epoch, active: np.ndarray | None = None) -> SolveReport:
    """Cold-start equal-weight fix over the ``active`` measurements (all by default).

    This is the one solve every consumer of an epoch starts from: the
    featurizer's rough position, the warm start of each weighted
    strategy and FDE's first round. A NonConvergence report counts as the
    fix; NotEnoughMeasurements and SingularGeometry propagate.

    ``residuals.build_residual_matrix`` solves this fix, and the fix on
    each leave-one-out subset, in its batched kernel call, with the same
    bits and the same rule (``fix_from_row``); this function is the fix
    of an epoch without a leave-one-out matrix and of FDE's later rounds.
    """
    w = np.ones(epoch.n) if active is None else np.asarray(active, dtype=float)
    try:
        return solve_wls(epoch, w)
    except NonConvergence as e:
        return e.report


def fix_from_row(epoch: Epoch, row) -> SolveReport:
    """``equal_weight_fix``'s rule on a kernel row: a capped row counts as the
    fix; a singular row raises SingularGeometry."""
    try:
        return row_report(epoch, *row)
    except NonConvergence as e:
        return e.report
