"""The damped Gauss-Newton pseudorange solve.

This is the hot kernel: the leave-one-out residual matrix costs N+1
solves per epoch. One numpy function, ``_normal_equations``, forms the
residuals, the Jacobian, the normal matrix, the gradient and the cost at
a state; the solver calls it wherever it needs any of them.

Every sum over measurements starts at 0.0 and runs through the rows in
order, one row after another. That fixes the rounding: a row with zero
weight adds exact zeros, so zeroing a measurement's weight and deleting
it give bitwise-identical solves (the leave-one-out matrix relies on
this), and the result does not depend on how a BLAS library blocks or
vectorizes a dot product.

Kernel state layout: [x, y, z, b_0 .. b_{K-1}] with clock terms in
meters (c * delta). Parameterizing clocks in meters keeps the normal
matrix condition number near the geometry's true DOP instead of
inflating it by c^2.
"""

import math

import numpy as np

# perfbench/run.py records this flag in its environment block; the solve
# has no compiled variant.
NUMBA_ENABLED = False

# Status codes returned by lm_solve.
STATUS_CONVERGED = 0
STATUS_MAX_ITER = 1
STATUS_SINGULAR = 2


def _normal_equations(x, sat_pos, pr, w, const_idx):
    """(A, g, cost) at state x: A = H^T W H, g = H^T W r, cost = r^T W r.

    H is the Jacobian of the predicted pseudoranges and r = pr - h(x).
    """
    n = pr.shape[0]
    d = x.shape[0]
    diff = x[:3] - sat_pos
    rng = np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1] + diff[:, 2] * diff[:, 2])
    rng = np.maximum(rng, 1e-3)
    J = np.zeros((n, d + 1))
    J[:, :3] = diff / rng[:, None]
    J[np.arange(n), 3 + const_idx] = 1.0
    J[:, d] = pr - (rng + x[3 + const_idx])
    # Row-ordered products summed over axis 0 from 0.0: M[j, k] is
    # sum_i (w_i J_ij) J_ik, accumulated measurement by measurement.
    M = ((J * w[:, None])[:, :, None] * J[:, None, :]).sum(axis=0, initial=0.0)
    # (w Hj) Hk and (w Hk) Hj round differently; keep A exactly symmetric.
    A = np.triu(M[:d, :d])
    A = A + np.triu(A, 1).T
    return A, M[:d, d], M[d, d]


def _sum_sq(v):
    """sum_j v_j^2 added in index order (np.sum would add pairwise)."""
    return np.cumsum(v * v)[-1]


def lm_solve(sat_pos, pr, w, const_idx, n_const, x0,
             max_iter, step_tol, lam0, lam_up, lam_down, cond_limit):
    """Levenberg-Marquardt minimization of sum_i w_i (rho_i - h_i(x))^2.

    Returns (x, iterations, status, cost). Damping multiplies the normal
    matrix diagonal. A trial step is accepted only if it strictly lowers
    the cost, and damping is then scaled by lam_down; a trial that raises
    the cost is retried with damping raised by lam_up.

    Stopping rule (Madsen, Nielsen & Tingleff, "Methods for Non-Linear
    Least Squares Problems", DTU 2004):
    - an accepted step shorter than step_tol, or
    - no trial lowers the cost: a trial cost exactly equal to the current
      one (the iterate is at the rounding floor, where the computed cost
      is flat), or damping saturating above 1e14.
    Both end the loop with STATUS_CONVERGED and go to the undamped
    Gauss-Newton polish. STATUS_MAX_ITER is returned only when all
    max_iter iterations lowered the cost, i.e. it was still falling at
    the cap; STATUS_SINGULAR when the normal matrix condition number
    exceeds cond_limit.
    """
    d = 3 + n_const
    x = x0.copy()
    lam = lam0
    status = STATUS_MAX_ITER
    iterations = 0
    diag = np.diag_indices(d)
    A, g, cost = _normal_equations(x, sat_pos, pr, w, const_idx)

    for it in range(max_iter):
        iterations = it + 1
        s = np.linalg.svd(A)[1]
        if s[s.shape[0] - 1] <= 0.0 or s[0] / s[s.shape[0] - 1] > cond_limit:
            status = STATUS_SINGULAR
            break

        accepted = False
        step_norm = 0.0
        for _trial in range(64):
            Ad = A.copy()
            Ad[diag] += lam * np.maximum(A[diag], 1e-12)
            dxs = np.linalg.solve(Ad, g)
            xc = x + dxs
            A_c, g_c, cost_c = _normal_equations(xc, sat_pos, pr, w, const_idx)
            # Only a strict decrease is progress. An equal cost means the
            # step is lost in rounding: accepting it lets the iterate wander
            # along the flat floor with steps above step_tol and never stop.
            if cost_c < cost:
                x, A, g, cost = xc, A_c, g_c, cost_c
                lam = max(lam * lam_down, 1e-12)
                step_norm = math.sqrt(_sum_sq(dxs))
                accepted = True
                break
            if cost_c == cost:
                break  # stagnation at the rounding floor
            lam = lam * lam_up
            if lam > 1e14:
                break

        if not accepted:
            # no trial lowered the cost (stagnation or saturated damping):
            # the iterate is a numerical stationary point
            status = STATUS_CONVERGED
            break
        if step_norm < step_tol:
            status = STATUS_CONVERGED
            break

    if status == STATUS_CONVERGED:
        # Undamped Gauss-Newton polish. The damped loop stops within
        # step_tol of the minimizer, or where no trial lowers the cost;
        # near the minimizer the computed cost is flat to
        # rounding (residuals are differences of ~1e7 m quantities, so the
        # cost carries ~1e-8 relative noise) and cannot gate acceptance.
        # The gradient still resolves the offset, so take plain GN steps
        # while the step norm shrinks and stop once it stalls or grows.
        prev2 = 1e300
        for _p in range(10):
            dxs = np.linalg.solve(A, g)
            step2 = _sum_sq(dxs)
            if step2 > 1.0 or step2 > prev2:
                break
            prev2 = step2
            x = x + dxs
            A, g, cost = _normal_equations(x, sat_pos, pr, w, const_idx)
            if step2 < 1e-20:
                break

    return x, iterations, status, cost
