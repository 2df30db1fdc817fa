"""Leave-one-out residual matrix: the joint features fed to the network."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import _kernels
from .errors import NotEnoughMeasurements, SingularGeometry
from .geo import SPEED_OF_LIGHT
from .model import Epoch
from .solver import _DEFAULT_START, SolveReport, fix_from_row, predicted_pseudoranges
from .solver import solve_wls  # noqa: F401  unused here; perfbench/tracing.py rebinds it by name

# Sentinel marking the deliberately excluded measurement (and rows whose
# subset solve failed). Far above any plausible residual magnitude.
GAMMA = 1e4


@dataclass
class ResidualMatrix:
    """N x N leave-one-out residuals; row n excludes measurement n.

    values[n, i] is the residual of measurement i against the equal-weight
    solution computed without measurement n; the diagonal is GAMMA.
    ``fix`` is the epoch's ``solver.equal_weight_fix``, or None where that
    raises SingularGeometry. ``links`` and ``kernel`` hold the batch of
    rows that drop no constellation's only link: ``kernel`` is its
    ``_kernels.lm_solve_batch`` output (x, iterations, status, cost) in
    kernel layout, and entry k is the row excluding link ``links[k]``.
    """

    values: np.ndarray
    fix: SolveReport | None
    links: np.ndarray
    kernel: tuple
    failed_rows: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def row(self, link: int) -> tuple | None:
        """Kernel output of the row excluding ``link``, when that row keeps
        every constellation's clock and is not singular: bit for bit
        ``solver.equal_weight_fix(epoch, active)`` with only ``link``
        inactive. None otherwise."""
        k = int(np.searchsorted(self.links, link))
        if k == self.links.size or self.links[k] != link:
            return None
        row = tuple(a[k] for a in self.kernel)
        return None if row[2] == _kernels.STATUS_SINGULAR else row


# The most rows one kernel call solves. It bounds the call's
# (rows, N, d + 1, d + 1) product of the normal equations to tens of MB
# at N near 30.
MAX_ROWS_PER_CALL = 1024


def _row_groups(epoch: Epoch) -> list:
    """(links, kept, sub_idx) of each group of the epoch's leave-one-out rows.

    A row that excludes the only measurement of a constellation solves
    without that clock column, as the subset epoch would; its weight-0
    measurement is parked on column 0. Rows are grouped by the
    constellation they drop, in ascending order with "none" first: group
    k holds the rows excluding ``links``, solved with the clock columns
    ``kept`` and the measurements' columns ``sub_idx``. With N > 3 +
    n_const at least one row drops none, so group 0 drops none.
    """
    n_const = epoch.state_dim() - 3
    const_idx = epoch.const_index()
    members = np.bincount(const_idx, minlength=n_const)
    drops = np.where(members[const_idx] == 1, const_idx, -1)
    groups = []
    for drop in np.unique(drops):
        kept = np.flatnonzero(np.arange(n_const) != drop)
        sub_idx = np.searchsorted(kept, const_idx)
        sub_idx[const_idx == drop] = 0
        groups.append((np.flatnonzero(drops == drop), kept, sub_idx))
    return groups


def solve_rows(epochs) -> list:
    """The kernel outputs of every epoch's leave-one-out rows, solved across epochs.

    Entry e is None when ``epochs[e]`` has too few links for the matrix
    (N <= state dimension). Otherwise it is the epoch's rows for
    ``build_residual_matrix``: one (links, kept, kernel) per row group of
    ``_row_groups``, where ``kernel`` is the group's ``lm_solve_batch``
    output (x, iterations, status, cost). The first group holds the rows
    that drop no constellation's only link (weights 1 - I) and, last,
    the all-ones row of the equal-weight fix; then comes one group per
    constellation whose only link a row drops. Every row is cold-started
    from ``solver._DEFAULT_START``.

    Rows are grouped by clock count and sorted by N; each kernel call
    takes at most ``MAX_ROWS_PER_CALL`` of them, with per-row
    measurements padded to the call's N. A call whose rows all come from
    one group shares that group's measurements instead. Row b of a call
    has the bits of a stack of one, so the output does not depend on how
    the epochs are split into calls.
    """
    groups = [_row_groups(epoch) if epoch.n > epoch.state_dim() else None for epoch in epochs]
    problems: dict = {}  # clock count -> [((epoch, group), sat, pr, sub_idx, w)]
    for e, epoch in enumerate(epochs):
        if groups[e] is None:
            continue
        n, sat, pr = epoch.n, epoch.sat_array(), epoch.pr_array()
        weights = 1.0 - np.eye(n)
        for k, (links, kept, sub_idx) in enumerate(groups[e]):
            w = weights[links] if k else np.vstack([weights[links], np.ones(n)])
            problems.setdefault(kept.size, []).append(((e, k), sat, pr, sub_idx, w))
    solved = {}  # (epoch, group) -> kernel output
    for n_clk, probs in problems.items():
        probs.sort(key=lambda p: p[1].shape[0])
        starts = list(accumulate((p[4].shape[0] for p in probs), initial=0))
        # Subset solves are cold-started on purpose: row n then depends only
        # on the N-1 retained measurements, so perturbing measurement n
        # cannot move its own row even at the last ulp. A warm start from
        # the all-in-view fix would leak the excluded measurement into the
        # iteration path.
        total = starts[-1]
        x0 = np.zeros((total, 3 + n_clk))
        x0[:, :3] = _DEFAULT_START.as_array()
        X, its = np.empty_like(x0), np.empty(total, dtype=np.int64)
        status, cost = np.empty_like(its), np.empty(total)
        for lo in range(0, total, MAX_ROWS_PER_CALL):
            hi = min(lo + MAX_ROWS_PER_CALL, total)
            # (problem, its rows in this call) for each problem in the call
            parts = [(probs[j], slice(max(lo, starts[j]) - starts[j], min(hi, starts[j + 1]) - starts[j]))
                     for j in range(bisect_right(starts, lo) - 1, bisect_left(starts, hi))]
            sat, pr, w, sub_idx = _call_arrays(parts)
            X[lo:hi], its[lo:hi], status[lo:hi], cost[lo:hi] = _kernels.lm_solve_batch(
                sat, pr, w, sub_idx, n_clk, x0[lo:hi], _kernels.MAX_ITERATIONS
            )
        for (key, *_), a, b in zip(probs, starts[:-1], starts[1:]):
            solved[key] = (X[a:b], its[a:b], status[a:b], cost[a:b])
    return [None if g is None else [(links, kept, solved[e, k]) for k, (links, kept, _) in enumerate(g)]
            for e, g in enumerate(groups)]


def _call_arrays(parts):
    """(sat, pr, w, sub_idx) of one kernel call over ``parts``.

    One part shares its measurements (a leading axis of length 1).
    Several get per-row measurements, padded to the longest part's N with
    zero-weight repeats of their own last link.
    """
    if len(parts) == 1:
        (_, sat, pr, sub_idx, w), rows = parts[0]
        return sat[None], pr[None], w[rows], sub_idx[None]
    n = max(p[1].shape[0] for p, _ in parts)
    sats, prs, idxs, ws = [], [], [], []
    for (_, sat, pr, sub_idx, w), rows in parts:
        pad = np.minimum(np.arange(n), sat.shape[0] - 1)
        b = rows.stop - rows.start
        sats.append(np.broadcast_to(sat[pad], (b, n, 3)))
        prs.append(np.broadcast_to(pr[pad], (b, n)))
        idxs.append(np.broadcast_to(sub_idx[pad], (b, n)))
        wp = np.zeros((b, n))
        wp[:, :sat.shape[0]] = w[rows]
        ws.append(wp)
    return np.concatenate(sats), np.concatenate(prs), np.concatenate(ws), np.concatenate(idxs)


def build_residual_matrix(epoch: Epoch, rows=None) -> ResidualMatrix:
    """Tabulate the residuals of each N-1 subset's equal-weight solve.

    Row n is ``solver.equal_weight_fix`` on the epoch without measurement
    n, bit for bit. ``rows`` is the epoch's entry of ``solve_rows``, whose
    kernel outputs the matrix is assembled from; without it the epoch's
    rows are solved here, as ``solve_rows([epoch])``. The all-ones row of
    the first group is the epoch's equal-weight fix, returned as ``fix``.
    Rows whose subset geometry is degenerate are filled with GAMMA and
    listed in ``failed_rows`` so downstream consumers see a consistent
    sentinel instead of a hard failure; a row whose solve hits the
    iteration cap keeps its iterate, as the fix does.
    """
    n = epoch.n
    if n < epoch.state_dim() + 1:
        raise NotEnoughMeasurements(
            f"N={n} leaves unsolvable subsets for state dim {epoch.state_dim()}"
        )
    if rows is None:
        rows = solve_rows([epoch])[0]
    n_const = epoch.state_dim() - 3
    pr = epoch.pr_array()
    values = np.full((n, n), GAMMA)
    failed: list[int] = []
    for k, (links, kept, out) in enumerate(rows):
        if k == 0:
            try:
                fix = fix_from_row(epoch, tuple(a[-1] for a in out))
            except SingularGeometry:
                fix = None
            fix_links, kernel = links, tuple(a[:-1] for a in out)
        x, status = out[0][:links.size], out[2][:links.size]
        ok = status != _kernels.STATUS_SINGULAR
        failed.extend(links[~ok].tolist())
        # The epoch-layout state of each row, clocks through the same
        # meters -> seconds -> meters round trip as a NavState; a dropped
        # constellation's clock is 0.
        full = np.zeros((int(ok.sum()), 3 + n_const))
        full[:, :3] = x[ok, :3]
        full[:, 3 + kept] = SPEED_OF_LIGHT * (x[ok, 3:] / SPEED_OF_LIGHT)
        values[links[ok]] = pr - predicted_pseudoranges(epoch, full)
    np.fill_diagonal(values, GAMMA)
    return ResidualMatrix(values=values, failed_rows=sorted(failed), fix=fix, links=fix_links, kernel=kernel)
