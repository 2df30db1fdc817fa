"""The damped Gauss-Newton pseudorange solve.

This is the hot kernel. ``lm_solve_batch`` runs a stack of B solves in
lockstep, and row b solves its own problem: every measurement array
(satellite positions, pseudoranges and clock column indices) carries a
leading row axis of length B. ``solver.solve_batch`` makes every batched
call: the leave-one-out rows and fixes, and the weighted strategies, of
many epochs. A single solve (``lm_solve``) is a stack of one. One numpy
function, ``_normal_equations``, forms the residuals, the Jacobian, the
normal matrix, the gradient and the cost at a stack of states; the
solver calls it wherever it needs any of them.

Rows of one call share the measurement count N and the state dimension.
A problem with fewer links is padded to the call's N with zero-weight
links, each repeating one of its own satellites so that every range
stays nonzero; a zero-weight link adds exact zeros (below), so padding
leaves the row's bits unchanged.

Every sum over measurements starts at 0.0 and runs through the rows in
order, one row after another, separately for each state of the stack.
That fixes the rounding: a row with zero weight adds exact zeros, so
zeroing a measurement's weight and deleting it give bitwise-identical
solves (the leave-one-out matrix relies on this), and the result does
not depend on how a BLAS library blocks or vectorizes a dot product.

Kernel state layout: [x, y, z, b_0 .. b_{K-1}] with clock terms in
meters (c * delta). Parameterizing clocks in meters keeps the normal
matrix condition number near the geometry's true DOP instead of
inflating it by c^2.

The solver's settings are the module constants below: the iteration cap
``MAX_ITERATIONS``, the step length ``STEP_TOLERANCE`` (m) that counts as
converged, the damping schedule ``INITIAL_DAMPING``, ``DAMPING_UP`` and
``DAMPING_DOWN``, and ``COND_LIMIT``, the normal matrix condition number
above which a solve is singular. Only the cap is an argument of the
solve functions, so that a test can lower it.
"""

import numpy as np

# perfbench/run.py records this flag in its environment block; the solve
# has no compiled variant.
NUMBA_ENABLED = False

# Status codes returned by lm_solve.
STATUS_CONVERGED = 0
STATUS_MAX_ITER = 1
STATUS_SINGULAR = 2

MAX_ITERATIONS = 50
STEP_TOLERANCE = 1e-6
INITIAL_DAMPING = 1e-3
DAMPING_UP = 10.0
DAMPING_DOWN = 0.1
COND_LIMIT = 1e12


def _normal_equations(x, w, sat_pos, pr, const_idx):
    """(A, g, cost) at each state x[b] with weights w[b].

    A = H^T W H, g = H^T W r and cost = r^T W r, where H is the Jacobian
    of the predicted pseudoranges and r = pr - h(x). x is (B, d) and w is
    (B, N); sat_pos (B, N, 3), pr and const_idx (B, N) are row b's
    measurements. A is (B, d, d), g is (B, d) and cost is (B,).
    """
    b, d = x.shape
    n = pr.shape[1]
    diff = x[:, None, :3] - sat_pos
    rng = np.sqrt(diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1] + diff[..., 2] * diff[..., 2])
    rng = np.maximum(rng, 1e-3)
    clock = 3 + const_idx  # each measurement's clock column
    row = np.arange(b)[:, None]
    J = np.zeros((b, n, d + 1))
    J[..., :3] = diff / rng[..., None]
    J[row, np.arange(n), clock] = 1.0
    J[..., d] = pr - (rng + x[row, clock])
    # Row-ordered products summed over the measurement axis from 0.0:
    # M[b, j, k] is sum_i (w_bi J_bij) J_bik, accumulated measurement by
    # measurement (numpy adds the (d+1, d+1) slabs in order; it does not
    # pairwise-sum over an outer axis).
    M = ((J * w[..., None])[..., :, None] * J[..., None, :]).sum(axis=1, initial=0.0)
    # (w Hj) Hk and (w Hk) Hj round differently; keep A exactly symmetric
    # by mirroring the upper triangle onto the lower.
    i = np.arange(d)
    A = np.where(i[:, None] <= i, M[:, :d, :d], M[:, :d, :d].swapaxes(1, 2))
    return A, M[:, :d, d], M[:, d, d]


def _sum_sq(v):
    """sum_j v[b, j]^2 added in index order (np.sum would add pairwise)."""
    return np.cumsum(v * v, axis=1)[:, -1]


def _solve(A, g):
    """x[b] = A[b]^-1 g[b] for a stack of systems."""
    return np.linalg.solve(A, g[..., None])[..., 0]


def lm_solve(sat_pos, pr, w, const_idx, n_const, x0, max_iter):
    """One solve: ``lm_solve_batch`` on a stack of one.

    sat_pos is (N, 3); pr, w and const_idx are (N,). Returns (x,
    iterations, status, cost) with x of shape (3 + n_const,).
    """
    x, iterations, status, cost = lm_solve_batch(
        sat_pos[None], pr[None], w[None], const_idx[None], n_const, x0[None], max_iter
    )
    return x[0], int(iterations[0]), int(status[0]), cost[0]


def lm_solve_batch(sat_pos, pr, w, const_idx, n_const, x0, max_iter):
    """Levenberg-Marquardt minimization of sum_i w[b, i] (rho_i - h_i(x))^2, per row b.

    Row b has the measurements sat_pos[b] (N, 3), pr[b] and const_idx[b]
    (N,), the weights w[b] (N,) and the start x0[b] (3 + n_const,).
    Returns arrays (x, iterations, status, cost), one entry per row. Each
    row runs the algorithm below on its own; the rows only share numpy
    calls. Every round makes one trial for each row still iterating, and a
    row leaves the working set, with its measurements, when it stops, so
    row b gets the bits a stack of one would give it.

    Damping multiplies the normal matrix diagonal. A trial step is
    accepted only if it strictly lowers the cost, and damping is then
    scaled by DAMPING_DOWN; a trial that raises the cost is retried (up to
    64 trials per iteration) with damping raised by DAMPING_UP.

    Stopping rule (Madsen, Nielsen & Tingleff, "Methods for Non-Linear
    Least Squares Problems", DTU 2004):
    - an accepted step shorter than STEP_TOLERANCE, or
    - no trial lowers the cost: a trial cost exactly equal to the current
      one (the iterate is at the rounding floor, where the computed cost
      is flat), or damping saturating above 1e14.
    Both end the loop with STATUS_CONVERGED and go to the undamped
    Gauss-Newton polish. STATUS_MAX_ITER is returned only when all
    max_iter iterations lowered the cost, i.e. it was still falling at
    the cap; STATUS_SINGULAR when the normal matrix condition number
    exceeds COND_LIMIT at the start of an iteration.
    """
    nb, d = x0.shape[0], 3 + n_const

    meas_out = (sat_pos, pr, const_idx)
    x_out = np.array(x0, dtype=float)
    A_out, g_out, cost_out = _normal_equations(x_out, w, *meas_out)
    it_out = np.zeros(nb, dtype=np.int64)
    status_out = np.full(nb, STATUS_MAX_ITER)

    # The working set: rows still in the damped loop and their state.
    rows = np.arange(nb) if max_iter > 0 else np.arange(0)
    x, A, g, cost, wr, meas = x_out, A_out, g_out, cost_out, w, meas_out
    lam = np.full(rows.size, INITIAL_DAMPING)
    iters = np.ones(rows.size, dtype=np.int64)  # the iteration each row is in
    trials = np.zeros(rows.size, dtype=np.int64)  # rejected trials in it
    fresh = np.ones(rows.size, dtype=bool)  # at the start of an iteration

    def leave(stop, status):
        """Retire the rows flagged in ``stop`` with their ``status``."""
        nonlocal rows, x, A, g, cost, wr, meas, lam, iters, trials, fresh
        # take() by index is a few times cheaper than a boolean mask on
        # these small stacks; a row's measurements leave with it
        gone, keep = stop.nonzero()[0], (~stop).nonzero()[0]
        out = rows[gone]
        x_out[out], A_out[out], g_out[out], cost_out[out], it_out[out], status_out[out] = (
            a.take(gone, axis=0) for a in (x, A, g, cost, iters, status))
        rows, x, A, g, cost, wr, lam, iters, trials, fresh = (
            a.take(keep, axis=0) for a in (rows, x, A, g, cost, wr, lam, iters, trials, fresh))
        meas = tuple(a.take(keep, axis=0) for a in meas)

    while rows.size:
        n_fresh = np.count_nonzero(fresh)
        if n_fresh:
            all_fresh = n_fresh == rows.size
            s = np.linalg.svd(A if all_fresh else A[fresh])[1]
            low = s[:, -1]
            bad = (low <= 0.0) | (s[:, 0] / np.where(low > 0.0, low, np.inf) > COND_LIMIT)
            if np.count_nonzero(bad):
                if not all_fresh:
                    bad_fresh, bad = bad, np.zeros(rows.size, dtype=bool)
                    bad[fresh] = bad_fresh
                leave(bad, np.full(rows.size, STATUS_SINGULAR))
                if not rows.size:
                    break

        Ad = A.copy()
        Ad_diag = Ad.reshape(rows.size, d * d)[:, ::d + 1]  # a view
        Ad_diag += lam[:, None] * np.maximum(Ad_diag, 1e-12)
        dx = _solve(Ad, g)
        xc = x + dx
        A_c, g_c, cost_c = _normal_equations(xc, wr, *meas)
        # Only a strict decrease is progress. An equal cost means the step
        # is lost in rounding: accepting it lets the iterate wander along
        # the flat floor with steps above STEP_TOLERANCE and never stop.
        better = cost_c < cost
        converged = cost_c == cost  # stagnation at the rounding floor
        trials = np.where(better, 0, trials + 1)
        lam = np.where(better, np.maximum(lam * DAMPING_DOWN, 1e-12), lam * DAMPING_UP)
        # no trial lowered the cost (saturated damping or all 64 trials
        # spent): the iterate is a numerical stationary point
        converged |= (lam > 1e14) & ~better | (trials == 64)
        converged |= better & (np.sqrt(_sum_sq(dx)) < STEP_TOLERANCE)
        n_better = np.count_nonzero(better)
        if n_better == rows.size:
            x, A, g, cost = xc, A_c, g_c, cost_c
        elif n_better:
            x = np.where(better[:, None], xc, x)
            A = np.where(better[:, None, None], A_c, A)
            g = np.where(better[:, None], g_c, g)
            cost = np.where(better, cost_c, cost)
        fresh = better
        stop = converged | better & (iters == max_iter)
        if np.count_nonzero(stop):
            leave(stop, np.where(converged, STATUS_CONVERGED, STATUS_MAX_ITER))
        iters += fresh

    # Undamped Gauss-Newton polish of the converged rows. The damped loop
    # stops within STEP_TOLERANCE of the minimizer, or where no trial
    # lowers the cost; near the minimizer the computed cost is flat to
    # rounding (residuals are differences of ~1e7 m quantities, so the cost
    # carries ~1e-8 relative noise) and cannot gate acceptance. The
    # gradient still resolves the offset, so take plain GN steps while the
    # step norm shrinks and stop once it stalls or grows.
    rows = np.flatnonzero(status_out == STATUS_CONVERGED)
    A, g = A_out[rows], g_out[rows]
    prev2 = np.full(rows.size, 1e300)
    for _p in range(10):
        if not rows.size:
            break
        dx = _solve(A, g)
        step2 = _sum_sq(dx)
        go = ~((step2 > 1.0) | (step2 > prev2))
        rows, dx, step2 = rows[go], dx[go], step2[go]
        if not rows.size:
            break
        x = x_out[rows] + dx
        A, g, cost = _normal_equations(x, w.take(rows, axis=0), *(a.take(rows, axis=0) for a in meas_out))
        x_out[rows], cost_out[rows] = x, cost
        more = ~(step2 < 1e-20)
        rows, A, g, prev2 = rows[more], A[more], g[more], step2[more]

    return x_out, it_out, status_out, cost_out
