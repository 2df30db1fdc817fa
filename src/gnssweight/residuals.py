"""Leave-one-out residual matrix: the joint features fed to the network."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import NotEnoughMeasurements
from .geo import SPEED_OF_LIGHT
from .model import Epoch
from .solver import _start, predicted_pseudoranges, solve_batch
from .solver import solve_wls  # noqa: F401  unused here; perfbench/tracing.py rebinds it by name

# Sentinel marking the deliberately excluded measurement (and rows whose
# subset solve failed). Far above any plausible residual magnitude.
GAMMA = 1e4


@dataclass
class ResidualMatrix:
    """N x N leave-one-out residuals; row n excludes measurement n.

    values[n, i] is the residual of measurement i against the equal-weight
    solution computed without measurement n; the diagonal is GAMMA.
    Rows whose subset solve is singular hold GAMMA and are listed in
    ``failed_rows``.
    """

    values: np.ndarray
    failed_rows: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _row_groups(epoch: Epoch) -> list:
    """(links, kept, sub_idx) of each group of the epoch's leave-one-out rows.

    A row that excludes the only measurement of a constellation solves
    without that clock column, as the subset epoch would; its weight-0
    measurement is parked on column 0. Rows are grouped by the
    constellation they drop, in ascending order with "none" first: group
    k holds the rows excluding ``links``, solved with the clock columns
    ``kept`` and the measurements' columns ``sub_idx``. An epoch with
    N <= 3 + n_const has no leave-one-out rows, and no groups; any other
    has a constellation of two links or more, so its first group drops
    none, keeps every clock column and has ``sub_idx`` ``const_index()``.
    """
    n_const = epoch.state_dim() - 3
    const_idx = epoch.const_index()
    if epoch.n <= epoch.state_dim():
        return []
    members = np.bincount(const_idx, minlength=n_const)
    drops = np.where(members[const_idx] == 1, const_idx, -1)
    groups = []
    for drop in sorted(set(drops.tolist())):
        kept = np.flatnonzero(np.arange(n_const) != drop)
        sub_idx = np.searchsorted(kept, const_idx)
        sub_idx[const_idx == drop] = 0
        groups.append((np.flatnonzero(drops == drop), kept, sub_idx))
    return groups


def solve_rows(epochs) -> list:
    """The kernel outputs of every epoch's fix and leave-one-out rows, solved across epochs.

    Entry e is (fix, groups) of ``epochs[e]``, for ``build_residual_matrix``.
    ``fix`` is the kernel row (x, iterations, status, cost) of the epoch's
    all-ones problem, its equal-weight fix, which ``solver.row_report``
    reads.
    ``groups`` holds one (links, kept, kernel) per row group of
    ``_row_groups``, where ``kernel`` is the group's ``solver.solve_batch``
    output (x, iterations, status, cost) of the rows with weights 1 - I;
    it is empty for an epoch with too few links for the matrix
    (N <= state dimension). Every row is cold-started from
    ``solver._DEFAULT_START``, and all of them go through one
    ``solver.solve_batch`` call, so the output does not depend on how the
    epochs are split into calls. The fix row leads its epoch's first
    problem, whose rows keep every clock column; ``solve_batch`` gives
    every row the bits of a stack of one, so sharing the problem moves
    no bit.
    """
    groups = [_row_groups(epoch) for epoch in epochs]
    problems = []
    for epoch, epoch_groups in zip(epochs, groups):
        n, sat, pr, x0 = epoch.n, epoch.sat_array(), epoch.pr_array(), _start(epoch, None)
        # the fix, an all-ones row on every clock column, with the rows of
        # the first group, or alone
        parts = epoch_groups or [(np.empty(0, np.int64), np.arange(epoch.state_dim() - 3), epoch.const_index())]
        for g, (links, kept, sub_idx) in enumerate(parts):
            lead = g == 0  # the fix row
            w = np.ones((lead + links.size, n))
            w[np.arange(lead, len(w)), links] = 0.0
            # Subset solves are cold-started on purpose: row n then depends
            # only on the N-1 retained measurements, so perturbing
            # measurement n cannot move its own row even at the last ulp. A
            # warm start from the all-in-view fix would leak the excluded
            # measurement into the iteration path.
            problems.append((sat, pr, sub_idx, w, np.repeat(x0[None, :3 + kept.size], len(w), 0)))
    solved = iter(solve_batch(problems))
    out = []
    for g in groups:
        first = next(solved)
        rows = [(links, kept, next(solved) if k else tuple(a[1:] for a in first))
                for k, (links, kept, _) in enumerate(g)]
        out.append((tuple(a[0] for a in first), rows))
    return out


def build_residual_matrix(epoch: Epoch, rows=None) -> ResidualMatrix:
    """Tabulate the residuals of each N-1 subset's equal-weight solve.

    Row n is ``solver.equal_weight_fix`` on the epoch without measurement
    n, bit for bit. ``rows`` is the epoch's entry of ``solve_rows``, whose
    kernel outputs the matrix is assembled from; without it the epoch's
    rows are solved here, as ``solve_rows([epoch])``. Rows whose subset
    geometry is degenerate are filled with GAMMA and listed in
    ``failed_rows`` so downstream consumers see a consistent sentinel
    instead of a hard failure; a row whose solve hits the iteration cap
    keeps its iterate, as the fix does. An epoch without leave-one-out
    rows (no ``_row_groups``) raises NotEnoughMeasurements.
    """
    n = epoch.n
    if rows is None:
        rows = solve_rows([epoch])[0]
    if not rows[1]:
        raise NotEnoughMeasurements(f"N={n} leaves unsolvable subsets for state dim {epoch.state_dim()}")
    n_const = epoch.state_dim() - 3
    pr = epoch.pr_array()
    values = np.full((n, n), GAMMA)
    failed: list[int] = []
    for links, kept, (x, _, status, _) in rows[1]:
        ok = status != _kernels.STATUS_SINGULAR
        if not ok.all():
            failed.extend(links[~ok].tolist())
            links, x = links[ok], x[ok]
        # The epoch-layout state of each row, clocks through the same
        # meters -> seconds -> meters round trip as a NavState; a dropped
        # constellation's clock is 0.
        full = np.zeros((len(x), 3 + n_const))
        full[:, :3] = x[:, :3]
        full[:, 3 + kept] = SPEED_OF_LIGHT * (x[:, 3:] / SPEED_OF_LIGHT)
        values[links] = pr - predicted_pseudoranges(epoch, full)
    values.ravel()[::n + 1] = GAMMA  # the diagonal
    return ResidualMatrix(values=values, failed_rows=sorted(failed))
