"""Weighted least-squares position solver (damped Gauss-Newton)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import _kernels
from .errors import NotEnoughMeasurements, NonConvergence, SingularGeometry, ZeroRange
from .geo import SPEED_OF_LIGHT, EcefPosition, GeodeticPosition, geodetic_to_ecef
from .model import Epoch, NavState

# Cold-start iterate: a point on the ellipsoid surface, zero clock biases.
# Single-epoch operation cannot assume any warm start.
_DEFAULT_START = geodetic_to_ecef(GeodeticPosition(0.0, 0.0, 0.0))
_COLD_START = NavState(_DEFAULT_START)


@dataclass
class SolveReport:
    state: NavState
    iterations: int
    converged: bool
    final_cost: float
    post_fit_residuals: np.ndarray


def state_to_vector(epoch: Epoch, state: NavState) -> np.ndarray:
    """[x, y, z, c*delta_k ...] with clock columns in epoch constellation order."""
    p, bias = state.position, state.clock_bias
    return np.array([p.x, p.y, p.z, *(SPEED_OF_LIGHT * bias.get(c, 0.0) for c in epoch.constellations())],
                    dtype=float)


def vector_to_state(epoch: Epoch, v: np.ndarray) -> NavState:
    v = v.tolist()
    biases = {c: v[3 + k] / SPEED_OF_LIGHT for k, c in enumerate(epoch.constellations())}
    return NavState(EcefPosition(v[0], v[1], v[2]), biases)


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
    d = x[..., None, :3] - epoch.sat_array()
    d *= d
    # np.linalg.norm(d, axis=-1)'s arithmetic, which adds the three squares
    # left to right: on column views that costs half a reduction over so
    # short an axis
    return np.sqrt((d[..., 0] + d[..., 1]) + d[..., 2]) + x[..., 3 + epoch.const_index()]


def _check_inputs(weights, sat, pr, starts) -> None:
    """ValueError for a negative or non-finite weight, then for a NaN or an
    infinity in the satellite positions, the pseudoranges or the starts,
    naming the first such input.

    The kernel would otherwise fail inside LAPACK on such a row, for every
    row of its call."""
    # count_nonzero costs about half of all() or any() on these small arrays
    if np.count_nonzero(np.isfinite(weights)) < weights.size or np.count_nonzero(weights < 0.0):
        raise ValueError("weights must be finite and nonnegative")
    for name, a in (("satellite positions", sat), ("pseudoranges", pr), ("starts", starts)):
        if np.count_nonzero(np.isfinite(a)) < a.size:
            raise ValueError(f"{name} must be finite")


def _start(epoch: Epoch, init: NavState | None) -> np.ndarray:
    """Kernel-layout start: ``init``, or the cold start ``_DEFAULT_START``
    with zero clocks."""
    return state_to_vector(epoch, _COLD_START if init is None else init)


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
    positive = np.count_nonzero(w > 0.0)
    if positive < dim:
        raise NotEnoughMeasurements(f"{positive} positive-weight measurements for {dim} unknowns")
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
    return epoch.sat_array(), epoch.pr_array(), epoch.const_index(), w, _start(epoch, init)[None].repeat(len(w), 0)


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
    k = [len(a) for a in x0]
    n = [len(a) for a in pr]
    dims = [a.shape[1] for a in x0]
    flat_w = np.concatenate(w, axis=None)
    sat, pr, clock = np.concatenate(sat), np.concatenate(pr), np.concatenate(clock)
    _check_inputs(flat_w, sat, pr, np.concatenate(x0, axis=None))
    # Row r has row_n[r] links from meas0[r] on in the concatenated
    # measurements, and the weights flat_w[w0[r]:w0[r] + row_n[r]].
    row_n, row_dim, meas0 = np.array([n, dims, [*accumulate(n, initial=0)][:-1]]).repeat(k, axis=1)
    w_end = row_n.cumsum()
    w0 = w_end - row_n
    positive = np.zeros(flat_w.size + 1, dtype=np.intp)  # positive weights before each
    (flat_w > 0.0).cumsum(out=positive[1:])
    solvable = positive[w_end] - positive[w0] >= row_dim
    iterations = np.zeros(row_n.size, dtype=np.int64)
    status = np.full(row_n.size, STATUS_NOT_ENOUGH)
    cost = np.full(row_n.size, np.nan)
    states = {}  # the states of the rows with d unknowns, in problem order
    for d in sorted(set(dims)):
        rows = (row_dim == d).nonzero()[0]
        x = np.concatenate([a for a in x0 if a.shape[1] == d])
        todo = solvable[rows].nonzero()[0]
        todo = todo[row_n[rows[todo]].argsort(kind="stable")]
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
        states[d] = x
    out, r0, first = [], 0, dict.fromkeys(states, 0)
    for kj, d in zip(k, dims):
        a, r1 = first[d], r0 + kj
        out.append((states[d][a:a + kj], iterations[r0:r1], status[r0:r1], cost[r0:r1]))
        first[d], r0 = a + kj, r1
    return out



def solve_runs(epochs, runs) -> list:
    """Drive ``runs`` in lockstep; entry k is run k's return value.

    Run k is a generator on ``epochs[k]``. It yields each problem it needs
    solved, (weights (rows, N), start), with its rows started as
    ``solve_wls(epochs[k], w, start)`` starts them, and is sent the
    problem's ``row_report`` per row, as a list. Each pass, one
    ``solve_batch`` solves every run's pending problem, so runs share
    kernel calls and each row has the bits of its own solve. An exception
    that a run raises ends the drive.
    """
    out = [None] * len(runs)
    sends = dict.fromkeys(range(len(runs)))  # run -> what it is sent next
    while sends:
        asks = {}  # run -> the (weights, start) it waits on
        for k, sent in sends.items():
            try:
                asks[k] = runs[k].send(sent)
            except StopIteration as stop:
                out[k] = stop.value
        solved = solve_batch([epoch_problem(epochs[k], w, start) for k, (w, start) in asks.items()])
        sends = {k: [row_report(epochs[k], *row) for row in zip(*kernel)] for k, kernel in zip(asks, solved)}
    return out
