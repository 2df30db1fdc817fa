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


def _check_inputs(weights, sat, pr, starts) -> None:
    """ValueError for a negative or non-finite weight, then for a NaN or an
    infinity in the satellite positions, the pseudoranges or the starts,
    naming the first such input.

    The kernel would otherwise fail inside LAPACK on such a row, for every
    row of its call."""
    if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
        raise ValueError("weights must be finite and nonnegative")
    for name, a in (("satellite positions", sat), ("pseudoranges", pr), ("starts", starts)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite")


def _start(epoch: Epoch, init: NavState | None) -> np.ndarray:
    """Kernel-layout start: ``init``, or the cold start ``_DEFAULT_START``."""
    if init is not None:
        return state_to_vector(epoch, init)
    x0 = np.zeros(epoch.state_dim())
    x0[:3] = _DEFAULT_START.as_array()
    return x0


def row_report(epoch: Epoch, x, iterations, status, cost) -> SolveReport | None:
    """The SolveReport of one kernel row, or None for a row without a solution.

    ``(x, iterations, status, cost)`` is one entry of a problem's
    ``solve_batch`` arrays (or the ``lm_solve`` tuple) for the full epoch.
    A row stopped at ``_kernels.MAX_ITERATIONS`` keeps its iterate, with
    ``converged`` False; a row ``solve_batch`` did not solve
    (``STATUS_NOT_ENOUGH``) or a singular one gives None.
    """
    if status in (STATUS_NOT_ENOUGH, _kernels.STATUS_SINGULAR):
        return None
    return SolveReport(
        state=vector_to_state(epoch, x),
        iterations=int(iterations),
        converged=status == _kernels.STATUS_CONVERGED,
        final_cost=float(cost),
        post_fit_residuals=epoch.pr_array() - predicted_pseudoranges(epoch, x),
    )


def solve_wls(epoch: Epoch, weights, init: NavState | None = None) -> SolveReport:
    """Minimize the weighted sum of squared pseudorange residuals.

    Raises NotEnoughMeasurements when the positive-weight rows cannot
    determine the state, SingularGeometry on an ill-conditioned normal
    matrix, and NonConvergence (carrying the best iterate, with
    ``converged`` False) when the cost is still falling after
    ``_kernels.MAX_ITERATIONS`` iterations. A solve that stops at the
    rounding floor, where a damped step is shorter than
    ``_kernels.STEP_TOLERANCE`` (1e-4 m, the step the computed cost
    resolves; the solve keeps its last accepted iterate and does not
    evaluate that step) or no step lowers the cost any further, has
    converged and returns normally, after Gauss-Newton steps up to the
    first one shorter than ``_kernels.POLISH_TOLERANCE`` (1e-8 m, the
    rounding noise of a step), which is not taken.
    The kernel's other settings are the constants next to
    ``MAX_ITERATIONS`` in ``_kernels``.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (epoch.n,):
        raise ValueError(f"weight vector length {w.shape} != N={epoch.n}")
    dim = epoch.state_dim()
    sat, pr, x0 = epoch.sat_array(), epoch.pr_array(), _start(epoch, init)
    _check_inputs(w, sat, pr, x0)
    if np.count_nonzero(w > 0.0) < dim:
        raise NotEnoughMeasurements(f"{int(np.sum(w > 0.0))} positive-weight measurements for {dim} unknowns")
    report = row_report(epoch, *_kernels.lm_solve(sat, pr, w, epoch.const_index(), dim - 3, x0))
    if report is None:
        raise SingularGeometry("weighted normal matrix condition number above limit")
    if not report.converged:
        raise NonConvergence(f"no convergence in {_kernels.MAX_ITERATIONS} iterations", report=report)
    return report


# The most rows one kernel call solves. It bounds the two buffers a call
# reuses for the Jacobian's column-pair products (see ``_kernels``), each
# N (d + 1)(d + 2) / 2 float64 per row: 1.4 MB at N = 12 and d = 6, an
# urban campaign's largest calls, and 4.4 MB at N = 30 and d = 7. Rows are
# sorted by N and padded to their call's last row, so it also bounds that
# padding. On a 2-vCPU x86-64 VM with 2 MiB of L2 per core, featurize's
# call on a 180-epoch urban campaign took a median 87, 77 and 77 ms at
# 1024, 512 and 256 rows; the buffers fit the cache better and the calls
# pad less.
MAX_ROWS_PER_CALL = 512

# The status ``solve_batch`` gives a row with fewer positive weights than
# unknowns, which it does not solve.
STATUS_NOT_ENOUGH = 3


def epoch_problem(epoch: Epoch, weights, init: NavState | None = None) -> tuple:
    """The ``solve_batch`` problem of the rows ``weights`` (k, N) on
    ``epoch``, each started as ``solve_wls(epoch, w, init)`` starts it."""
    w = np.asarray(weights, dtype=float)
    return epoch.sat_array(), epoch.pr_array(), epoch.const_index(), w, np.tile(_start(epoch, init), (len(w), 1))


def solve_batch(problems) -> list:
    """The kernel rows of every problem, solved in lockstep across problems.

    A problem is (sat, pr, clock, weights, starts): rows on one set of
    measurements, with the satellite positions (N, 3), the pseudoranges
    and each measurement's clock column (N,) shared by its rows; row r
    has the weights ``weights[r]`` (N,) and starts from ``starts[r]``
    (3 + clocks,), in kernel layout. Entry j of the result is problem j's
    (x, iterations, status, cost): arrays with one entry per row, as
    ``_kernels.lm_solve_batch`` returns them, under the kernel's module
    settings (its cap ``_kernels.MAX_ITERATIONS`` among them). A row with
    fewer positive weights than unknowns is not solved: it keeps its
    start, 0 iterations, NaN cost and the status ``STATUS_NOT_ENOUGH``,
    for which ``row_report`` gives None. A negative or non-finite weight,
    and a non-finite satellite coordinate, pseudorange or start in any
    problem, raise ValueError.

    Rows are grouped by clock count and sorted by N; each kernel call
    takes at most ``MAX_ROWS_PER_CALL`` of them. Each row carries its
    problem's measurements, padded to the call's N with zero-weight
    repeats of the problem's last link. Row b of a call has the bits of a
    stack of one, so the output does not depend on how the problems are
    split into calls. A call's arrays are gathered from the problems'
    concatenated measurements and weights with one index per call, and
    each problem's result is a slice of arrays shared by all problems.
    """
    if not problems:
        return []
    sat, pr, clock, w, x0 = zip(*problems)
    k = np.array([len(a) for a in x0])
    n = np.array([a.size for a in pr])
    dim = np.array([a.shape[1] for a in x0])
    # Row r's weights are flat_w[w0[r]:w0[r] + row_n[r]], and its links
    # start at meas0[r] in the concatenated measurements.
    flat_w = np.concatenate([a.ravel() for a in w])
    row_n, row_dim = np.repeat(n, k), np.repeat(dim, k)
    w_end = np.cumsum(row_n)
    w0 = w_end - row_n
    positive = np.concatenate([[0], np.cumsum(flat_w > 0.0)])
    solvable = positive[w_end] - positive[w0] >= row_dim
    meas0 = np.repeat(np.cumsum(n) - n, k)
    sat, pr, clock = np.concatenate(sat), np.concatenate(pr), np.concatenate(clock)
    _check_inputs(flat_w, sat, pr, np.concatenate([a.ravel() for a in x0]))
    iterations = np.zeros(row_n.size, dtype=np.int64)
    status = np.full(row_n.size, STATUS_NOT_ENOUGH)
    cost = np.full(row_n.size, np.nan)
    bounds = [0, *np.cumsum(k).tolist()]  # problem j's rows are bounds[j]:bounds[j + 1]
    out = [None] * len(problems)
    for d in np.unique(dim).tolist():
        js = np.flatnonzero(dim == d).tolist()
        # the rows with d unknowns, in problem order, and their states
        rows = np.flatnonzero(row_dim == d)
        x = np.concatenate([x0[j] for j in js])
        todo = np.flatnonzero(solvable[rows])
        todo = todo[np.argsort(row_n[rows[todo]], kind="stable")]
        for lo in range(0, todo.size, MAX_ROWS_PER_CALL):
            b = todo[lo:lo + MAX_ROWS_PER_CALL]
            r = rows[b]
            nr = row_n[r][:, None]
            i = np.arange(nr[-1, 0])  # the call's N, the last row's
            pad = np.minimum(i, nr - 1)
            links = meas0[r][:, None] + pad
            wb = np.where(i < nr, flat_w[w0[r][:, None] + pad], 0.0)
            x[b], iterations[r], status[r], cost[r] = _kernels.lm_solve_batch(
                sat[links], pr[links], wb, clock[links], d - 3, x[b])
        lo = 0
        for j in js:
            r0, r1 = bounds[j], bounds[j + 1]
            out[j] = (x[lo:lo + r1 - r0], iterations[r0:r1], status[r0:r1], cost[r0:r1])
            lo += r1 - r0
    return out


def equal_weight_fix(epoch: Epoch, active: np.ndarray | None = None) -> SolveReport:
    """Cold-start equal-weight fix over the ``active`` measurements (all by default).

    A NonConvergence report counts as the fix; NotEnoughMeasurements and
    SingularGeometry propagate. Every other fix in the package is a
    ``solve_batch`` row read by ``row_report``, with the same bits and
    rule: each epoch's all-ones problem in ``residuals.solve_rows``,
    ``evaluation``'s fixes when no learned strategy runs and FDE's rounds.
    This single solve is the reference the tests compare them with.
    """
    w = np.ones(epoch.n) if active is None else np.asarray(active, dtype=float)
    try:
        return solve_wls(epoch, w)
    except NonConvergence as e:
        return e.report
