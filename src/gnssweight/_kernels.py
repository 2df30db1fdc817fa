"""The damped Gauss-Newton pseudorange solve.

This is the hot kernel. ``lm_solve_batch`` runs a stack of B solves in
lockstep, and row b solves its own problem: every measurement array
(satellite positions, pseudoranges and clock column indices) carries a
leading row axis of length B. ``solver.solve_batch`` makes every batched
call: the leave-one-out rows and fixes, the weighted strategies, and
FDE's exclusion rounds and final solves, of many epochs. A single solve
(``lm_solve``) is a stack of one. One numpy function,
``_normal_equations``, forms the residuals, the Jacobian, the normal
matrix, the gradient and the cost at a stack of states; the solver calls
it wherever it needs any of them. It takes the stack's measurements in
the layout of ``_layout``, built once per call, with the row axis last
and the parts that do not change between rounds (the clock columns of
the Jacobian and their indices) precomputed.

The largest arrays of a solve are the Jacobian's column-pair products,
(N, T, B) with T = (d + 1)(d + 2) / 2 pairs for d unknowns (d + 1
columns with the residual). ``lm_solve_batch`` allocates two flat
buffers of N * T * B elements once per call, and every
``_normal_equations`` call of the solve writes its products into
C-contiguous prefixes of them; the working set only shrinks as rows
stop. The buffers stay resident and warm in cache, where arrays of that
size allocated per round would go back to the OS and cost more in minor
page faults than the products at B = 1024; ``solver.MAX_ROWS_PER_CALL``
bounds their size. No result of ``_normal_equations`` shares memory
with them.

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
The order rests on how numpy reduces a C-contiguous array over its
leading axis; ``tests/test_solver.py`` checks it against a loop at the
stack shapes the solver runs.

A solve is singular when ``_ill_conditioned`` flags its normal matrix:
a condition number test on the eigenvalues (``np.linalg.eigvalsh``),
which for this symmetric positive semi-definite matrix are its singular
values. Its decision can differ from an SVD-based test's only for a
condition number within about 1e-3 relative of ``COND_LIMIT``. Most
matrices skip eigvalsh: a matrix whose determinant and trace satisfy
|tr|^d < det * COND_LIMIT * 1e-3 (one comparison, which a row with
det <= 0 fails) has a condition number below 1e9, where eigvalsh says
"not singular" too, so the decisions are eigvalsh's; only the other rows
run eigvalsh (see ``_ill_conditioned``). Each round in which some row
starts an iteration tests the whole working set: a row in the middle of
an iteration holds the matrix that already passed, and each row's
decision does not depend on the rest of the stack.

A round costs numpy calls, not arithmetic, at the sizes the benchmark's
online fixes run (B = 1 to about 20 rows, N about 18, d = 7), so a round
makes only the calls its rows can need: a round in which every trial
lowered its cost tests only the iteration cap, since no row of it can be
at the rounding floor or saturate its damping; a round in which none
did tests only those two; and a row that leaves is handed its status as
one code where all leaving rows share it.

Kernel state layout: [x, y, z, b_0 .. b_{K-1}] with clock terms in
meters (c * delta). Parameterizing clocks in meters keeps the normal
matrix condition number near the geometry's true DOP instead of
inflating it by c^2.

The solver's settings are the module constants below: the iteration cap
``MAX_ITERATIONS``, the two floors ``STEP_TOLERANCE`` and
``POLISH_TOLERANCE`` (m), the damping schedule ``INITIAL_DAMPING``,
``DAMPING_UP`` and ``DAMPING_DOWN``, and ``COND_LIMIT``, the normal matrix
condition number above which a solve is singular.

Each floor is the resolution of the test that ends its loop. Residuals
are differences of ranges and pseudoranges near 2e7 m, so each carries
rounding of a few nanometres, and the cost at a converged state carries
rounding noise of about 3e-8 to 5e-8 (m^2 at unit weights; median spread
of the cost under 1e-8 m moves of the position, over the converged rows
of the benchmark's dense open-sky stream and of a 180-epoch urban
campaign, seed 601). Near the minimum a step s changes the cost by about
s^2 tr(A) / d, which that noise swamps below a median 7.9e-5 m and
1.3e-4 m on those rows: there the damped loop's strict-decrease test is
decided by rounding, so a trial step shorter than ``STEP_TOLERANCE``
(1e-4 m) ends the loop before it is evaluated, at the last accepted
iterate. The Gauss-Newton polish resolves the offset through the
gradient instead, and from within ``STEP_TOLERANCE`` one step reaches the
floor; each later step is rounding noise of a few ulps of an ECEF
coordinate (median 4e-9 m and 5e-9 m, at most 1.6e-8 m on the dense
stream), so a polish step shorter than ``POLISH_TOLERANCE`` (1e-8 m) is
solved but not taken, and ends the row. Neither rule changes a status or
an iteration count on the reference corpus of ``tests/test_solver.py``
or on the seed-601 benchmark calls; they move converged rows by
nanometres and save the evaluations that rounding would have decided.
"""

import functools

import numpy as np

# perfbench/run.py records this flag in its environment block; the solve
# has no compiled variant.
NUMBA_ENABLED = False

# Status codes returned by lm_solve.
STATUS_CONVERGED = 0
STATUS_MAX_ITER = 1
STATUS_SINGULAR = 2

MAX_ITERATIONS = 50
STEP_TOLERANCE = 1e-4
POLISH_TOLERANCE = 1e-8
INITIAL_DAMPING = 1e-3
DAMPING_UP = 10.0
DAMPING_DOWN = 0.1
COND_LIMIT = 1e12


@functools.lru_cache(maxsize=None)
def _pairs(d):
    """Index tables of the upper triangle of a (d+1)-column Jacobian's products.

    Pair t is columns (jj[t], kk[t]), jj[t] <= kk[t], row by row; the last
    pair is (d, d). ``sym[j, k]`` is the pair of (min(j, k), max(j, k)) for
    j, k < d and ``gi[j]`` the pair (j, d). Built once per d; the cached
    arrays are read-only, since every call shares them.
    """
    jj, kk = np.triu_indices(d + 1)
    t = np.empty((d + 1, d + 1), dtype=np.intp)
    t[jj, kk] = t[kk, jj] = np.arange(jj.size)
    for a in (jj, kk, t):
        a.flags.writeable = False
    return jj, kk, t[:d, :d], t[:d, d]


def _layout(sat_pos, pr, w, const_idx, d):
    """Row b's measurements, with the row axis last: (sat, pr, w, clock, J0).

    sat is (N, 3, B), pr (N, B) and w (N, 1, B). clock indexes each
    measurement's clock term in the flattened (B, d) state stack, and J0
    is the (N, d + 1, B) Jacobian's constant part: 1 on each measurement's
    clock column.
    """
    b, n = pr.shape
    clock = 3 + const_idx.T
    J0 = np.zeros((n, d + 1, b))
    J0[np.arange(n)[:, None], clock, np.arange(b)] = 1.0
    return (np.ascontiguousarray(sat_pos.transpose(1, 2, 0)), np.ascontiguousarray(pr.T),
            np.ascontiguousarray(w.T)[:, None], clock + d * np.arange(b), J0)


def _take(meas, keep):
    """The ``_layout`` of the rows ``keep`` (indices) of ``meas``."""
    sat, pr, w, clock, J0 = (a.take(keep, axis=-1) for a in meas)
    return sat, pr, w, clock + (J0.shape[1] - 1) * (np.arange(keep.size) - keep), J0


def _normal_equations(x, meas, pairs, buf):
    """(A, g, cost) at each state x[b] of a stack.

    A = H^T W H, g = H^T W r and cost = r^T W r, where H is the Jacobian
    of the predicted pseudoranges and r = pr - h(x). x is (B, d), meas is
    the stack's ``_layout`` and pairs is ``_pairs(d)``. A is (B, d, d), g
    is (B, d) and cost is (B,). buf is a pair of flat float64 arrays of at
    least N * T * B elements, T = len(pairs[0]), that the pair products
    are written into (``lm_solve_batch`` passes the same two to every
    call of a solve). No result shares memory with buf.
    """
    sat, pr, w, clock, J0 = meas
    jj, kk, sym, gi = pairs
    d = x.shape[1]
    n, b = pr.shape
    diff = x.T[:3] - sat
    sq = diff * diff
    rng = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])
    rng = np.maximum(rng, 1e-3)
    J = J0.copy()
    J[:, :3] = diff / rng[:, None]
    J[:, d] = pr - (rng + x.take(clock))
    # The products (w_i J_ij) J_ik of the upper triangle, j <= k, as a
    # C-contiguous (N, T, B) array (take() writes in C order; a fancy index
    # would leave the pair axis outermost), summed over the leading
    # measurement axis from 0.0: numpy adds an outer axis of a contiguous
    # array slab by slab, in order, where it would pairwise-sum an inner one.
    # take() copies into its ``out`` only in the default mode "raise", and
    # every index is in range, so "clip" writes straight into the buffers.
    shape, size = (n, jj.size, b), n * jj.size * b
    P, Q = buf[0][:size].reshape(shape), buf[1][:size].reshape(shape)
    (J * w).take(jj, axis=1, out=P, mode="clip")
    J.take(kk, axis=1, out=Q, mode="clip")
    P *= Q
    S = np.add.reduce(P, axis=0, initial=0.0).T
    # A takes each (j, k) and (k, j) from one product, so it is exactly
    # symmetric.
    return S.take(sym, axis=1), S[:, gi], S[:, -1]


def _ill_conditioned(A):
    """Rows of a stack of normal matrices that count as singular.

    The smallest eigenvalue is <= 0, or the largest over the smallest
    exceeds COND_LIMIT. A is symmetric positive semi-definite, so its
    eigenvalues are its singular values (Golub & Van Loan, Matrix
    Computations, 8.6) and this is the condition number test, at about a
    third of the cost of an SVD. The two compute the smallest value to
    about n eps cond(A) relative, so their decisions can differ only for
    a condition number within about 1e-3 relative of COND_LIMIT.

    eigvalsh runs only on the rows that a cheaper certificate leaves open.
    For positive semi-definite A of dimension d with det > 0, the largest
    eigenvalue is at most tr = trace(A) and the smallest at least
    det / tr^(d-1), so cond(A) <= tr^d / det. The certificate is the one
    comparison |tr|^d < det * COND_LIMIT * 1e-3: |tr|^d is not negative,
    so a row passes only with det > 0 (a NaN passes no comparison), and
    for the kernel's normal matrices, whose diagonals are sums of
    nonnegative terms, |tr| is tr. A row that passes therefore has a
    condition number of about 1e9 at most, far from COND_LIMIT: the
    factor 1e-3 covers the rounding of the LU determinant, which is that
    of det(A + E) for |E| about n eps |A| (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, ch. 9). eigvalsh finds such a row's
    smallest eigenvalue positive and to about 1e-6 relative (Golub & Van
    Loan 8.1), so it would not flag the row either. Every other row goes
    through the eigenvalue test: det <= 0, a NaN, a det or |tr|^d that
    overflows or underflows (numpy warns of the overflow), or a bound too
    loose to decide. Each decision is therefore eigvalsh's, and the claim
    above about the SVD test still holds. The bound assumes A positive
    semi-definite up to rounding, as every normal matrix of the kernel
    is; a symmetric matrix with two or more negative eigenvalues well
    above rounding could pass it.
    """
    d = A.shape[-1]
    flag = ~(np.abs(A.trace(axis1=1, axis2=2)) ** d < np.linalg.det(A) * (COND_LIMIT * 1e-3))
    if np.count_nonzero(flag):
        rows = flag.nonzero()[0]
        flag[rows] = _eigen_ill_conditioned(A[rows])
    return flag


def _eigen_ill_conditioned(A):
    """``_ill_conditioned``'s decision from the eigenvalues of each matrix."""
    ev = np.linalg.eigvalsh(A)  # ascending
    low = ev[:, 0]
    return (low <= 0.0) | (ev[:, -1] / np.where(low > 0.0, low, np.inf) > COND_LIMIT)


def _sum_sq(v):
    """sum_j v[b, j]^2 added in index order (np.sum would add pairwise)."""
    return (v * v).cumsum(axis=1)[:, -1]


def _solve(A, g):
    """x[b] = A[b]^-1 g[b] for a stack of systems."""
    return np.linalg.solve(A, g[..., None])[..., 0]


def lm_solve(sat_pos, pr, w, const_idx, n_const, x0):
    """One solve: ``lm_solve_batch`` on a stack of one.

    sat_pos is (N, 3); pr, w and const_idx are (N,). Returns (x,
    iterations, status, cost) with x of shape (3 + n_const,).
    """
    x, iterations, status, cost = lm_solve_batch(sat_pos[None], pr[None], w[None], const_idx[None], n_const, x0[None])
    return x[0], int(iterations[0]), int(status[0]), cost[0]


def lm_solve_batch(sat_pos, pr, w, const_idx, n_const, x0):
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
    scaled by DAMPING_DOWN; a trial that raises the cost is retried with
    damping raised by DAMPING_UP. Damping never falls below 1e-12, so at
    most 27 trials in a row are rejected before it saturates above 1e14.

    Stopping rule (Madsen, Nielsen & Tingleff, "Methods for Non-Linear
    Least Squares Problems", DTU 2004):
    - a damped step shorter than STEP_TOLERANCE, measured before the
      trial is evaluated: the row stops at its last accepted iterate and
      the trial is never evaluated, or
    - no trial lowers the cost: a trial cost exactly equal to the current
      one (the iterate is at the rounding floor, where the computed cost
      is flat), or damping saturating above 1e14; both are known only
      after the trial's evaluation.
    All end the loop with STATUS_CONVERGED and go to the undamped
    Gauss-Newton polish (``_polish``); a rejected trial is not an
    iteration. STEP_TOLERANCE is the step the computed cost resolves
    (module docstring), so below it acceptance is decided by rounding,
    and evaluating the trial would only let rounding pick between two
    points within STEP_TOLERANCE of each other, which the polish takes to
    the same Gauss-Newton point to within rounding. A row that would
    retry a rejected short trial could end no other way either, since
    more damping shortens the step further; otherwise it stops at equal
    cost or saturated damping. STATUS_MAX_ITER is returned only when all MAX_ITERATIONS
    iterations lowered the cost by a step of at least STEP_TOLERANCE,
    i.e. it was still falling at the cap by more than the cost resolves.
    A row that creeps with accepted steps between 1e-6 m and
    STEP_TOLERANCE, which a 1e-6 m floor would have run to the cap, stops
    as converged before its first such step, so a status can move from
    STATUS_MAX_ITER (or, for a condition number crossing COND_LIMIT on
    that last stretch, STATUS_SINGULAR) to STATUS_CONVERGED, never back;
    no row of ``tests/test_solver.py``'s reference corpus, nor of the
    seed-601 ``dense_sky_fix`` pass and ``urban_pipeline`` unit, does.
    STATUS_SINGULAR is returned when ``_ill_conditioned`` flags the normal
    matrix at the start of an iteration. A row's STATUS_SINGULAR can
    differ from an SVD-based test's only for a condition number within
    about 1e-3 relative of COND_LIMIT.
    """
    nb, d = x0.shape[0], 3 + n_const
    pairs = _pairs(d)
    meas_out = _layout(sat_pos, pr, w, const_idx, d)
    # every _normal_equations call of the solve writes its pair products
    # into prefixes of these two buffers: the working set only shrinks
    size = pr.shape[1] * pairs[0].size * nb
    buf = (np.empty(size), np.empty(size))
    x_out = np.array(x0, dtype=float)
    A_out, g_out, cost_out = _normal_equations(x_out, meas_out, pairs, buf)
    # every row leaves the loop through leave(), which writes both
    it_out, status_out = np.empty(nb, dtype=np.int64), np.empty(nb, dtype=np.int64)

    # The working set: rows still in the damped loop and their state.
    rows = np.arange(nb)
    x, A, g, cost, meas = x_out, A_out, g_out, cost_out, meas_out
    lam = np.full(rows.size, INITIAL_DAMPING)
    iters = np.ones(rows.size, dtype=np.int64)  # the iteration each row is in
    fresh = True  # some row is at the start of an iteration

    def leave(stop, status):
        """Retire the rows flagged in ``stop`` with ``status``, one code for
        them all or an array over the working set; returns the indices of
        the rows that stay."""
        nonlocal rows, x, A, g, cost, meas, lam, iters
        # take() by index is a few times cheaper than a boolean mask on
        # these small stacks; a row's measurements leave with it
        gone, keep = stop.nonzero()[0], (~stop).nonzero()[0]
        out = rows[gone]
        x_out[out], A_out[out], g_out[out], cost_out[out], it_out[out] = (
            a.take(gone, axis=0) for a in (x, A, g, cost, iters))
        status_out[out] = status if isinstance(status, int) else status.take(gone)
        if not keep.size:  # the last rows: the loop ends
            rows = keep
            return keep
        rows, x, A, g, cost, lam, iters = (a.take(keep, axis=0) for a in (rows, x, A, g, cost, lam, iters))
        meas = _take(meas, keep)
        return keep

    while rows.size:
        # the whole working set, whenever some row is fresh (module docstring)
        if fresh:
            bad = _ill_conditioned(A)
            if np.count_nonzero(bad):
                leave(bad, STATUS_SINGULAR)
                if not rows.size:
                    break

        Ad = A.copy()
        Ad_diag = Ad.reshape(rows.size, d * d)[:, ::d + 1]  # a view
        Ad_diag += lam[:, None] * np.maximum(Ad_diag, 1e-12)
        dx = _solve(Ad, g)
        # A step too short for the cost to resolve ends its row where it
        # is, unevaluated (see the docstring).
        short = np.sqrt(_sum_sq(dx)) < STEP_TOLERANCE
        if np.count_nonzero(short):
            dx = dx.take(leave(short, STATUS_CONVERGED), axis=0)
            if not rows.size:
                break
        xc = x + dx
        A_c, g_c, cost_c = _normal_equations(xc, meas, pairs, buf)
        # Only a strict decrease is progress. An equal cost means the step
        # is lost in rounding: accepting it lets the iterate wander along
        # the flat floor with steps above STEP_TOLERANCE and never stop.
        better = cost_c < cost
        # Each case below gives every row the bits of the all-rows form of
        # the middle one, without the numpy calls its rows cannot need.
        n_better = np.count_nonzero(better)
        if n_better == rows.size:
            # Every trial lowered its cost, so no row is at the rounding
            # floor or has saturated damping: only the cap stops a row.
            x, A, g, cost = xc, A_c, g_c, cost_c
            lam = np.maximum(lam * DAMPING_DOWN, 1e-12)
            stop = iters == MAX_ITERATIONS
            if np.count_nonzero(stop):
                leave(stop, STATUS_MAX_ITER)
            iters += 1
            fresh = True
        elif n_better:
            # Stagnation at the rounding floor.
            converged = cost_c == cost
            x = np.where(better[:, None], xc, x)
            A = np.where(better[:, None, None], A_c, A)
            g = np.where(better[:, None], g_c, g)
            cost = np.where(better, cost_c, cost)
            lam = np.where(better, np.maximum(lam * DAMPING_DOWN, 1e-12), lam * DAMPING_UP)
            # Saturated damping: no trial lowers the cost, and the iterate
            # is a numerical stationary point. A row enters the round with
            # damping at most 1e14 and an accepted trial lowers it, so only
            # a rejected trial gets here.
            converged |= lam > 1e14
            stop = converged | better & (iters == MAX_ITERATIONS)
            if np.count_nonzero(stop):
                better = better.take(leave(stop, np.where(converged, STATUS_CONVERGED, STATUS_MAX_ITER)))
                if not rows.size:
                    break
            iters += better
            fresh = bool(np.count_nonzero(better))
        else:
            # No trial lowered its cost: each row stops at the floor or at
            # saturated damping, or retries, and none starts an iteration.
            lam = lam * DAMPING_UP
            stop = (cost_c == cost) | (lam > 1e14)
            if np.count_nonzero(stop):
                leave(stop, STATUS_CONVERGED)
            fresh = False

    _polish(x_out, cost_out, (status_out == STATUS_CONVERGED).nonzero()[0], A_out, g_out,
            meas_out, pairs, buf)
    return x_out, it_out, status_out, cost_out


def _polish(x_out, cost_out, rows, A, g, meas, pairs, buf):
    """Undamped Gauss-Newton polish of the call's ``rows``, in place.

    A, g and meas are the whole call's normal equations at x_out and its
    ``_layout``. The damped loop stops where the computed cost no longer
    resolves a step (STEP_TOLERANCE, 1e-4 m), but the gradient still
    resolves the offset, so take plain GN steps while the step norm
    shrinks, at most 10. Each step is solved and then tested, and a row
    stops without taking it if it is longer than 1 m or than the row's
    last step, or shorter than POLISH_TOLERANCE (1e-8 m, the step's
    rounding noise: from within STEP_TOLERANCE one step reaches the
    floor, and each further one is a few ulps of an ECEF coordinate; see
    the module docstring). A row that stops leaves by index with its
    measurements, so only a step that is taken is evaluated.
    """
    if rows.size < x_out.shape[0]:
        A, g, meas = A[rows], g[rows], _take(meas, rows)
    prev2 = 1.0  # squared bound on a step: 1 m for the first, then the last step taken
    for _p in range(10):
        if not rows.size:
            break
        dx = _solve(A, g)
        step2 = _sum_sq(dx)
        go = ~((step2 > prev2) | (step2 < POLISH_TOLERANCE**2))
        if np.count_nonzero(go) < rows.size:
            keep = go.nonzero()[0]
            if not keep.size:
                break
            rows, dx, step2, meas = rows[keep], dx[keep], step2[keep], _take(meas, keep)
        x = x_out[rows] + dx
        A, g, cost = _normal_equations(x, meas, pairs, buf)
        x_out[rows], cost_out[rows] = x, cost
        prev2 = step2
