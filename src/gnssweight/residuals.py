"""Leave-one-out residual matrix: the joint features fed to the network."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import NotEnoughMeasurements
from .geo import SPEED_OF_LIGHT
from .model import Epoch
from .solver import epoch_problem, predicted_pseudoranges, solve_batch
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
    constellation they drop: a group holds the rows excluding ``links``,
    solved with the clock columns ``kept`` and the measurements' columns
    ``sub_idx``. An epoch with N <= 3 + n_const has no leave-one-out
    rows, and no groups.
    """
    n_const = epoch.state_dim() - 3
    const_idx = epoch.const_index()
    if epoch.n <= epoch.state_dim():
        return []
    members = np.bincount(const_idx, minlength=n_const)
    drops = np.where(members[const_idx] == 1, const_idx, -1)
    groups = []
    for drop in sorted(set(drops.tolist())):
        kept = (np.arange(n_const) != drop).nonzero()[0]
        sub_idx = kept.searchsorted(const_idx)
        sub_idx[const_idx == drop] = 0
        groups.append(((drops == drop).nonzero()[0], kept, sub_idx))
    return groups


def solve_rows(epochs) -> list:
    """The kernel outputs of every epoch's fix and leave-one-out rows, solved across epochs.

    Entry e is (fix, groups) of ``epochs[e]``, for ``build_residual_matrix``.
    ``fix`` is the kernel row (x, iterations, status, cost) of the epoch's
    all-ones problem from ``solver.epoch_problem``, its equal-weight fix,
    which ``solver.row_report`` reads.
    ``groups`` holds one (links, kept, kernel) per row group of
    ``_row_groups``, where ``kernel`` is the group's ``solver.solve_batch``
    output (x, iterations, status, cost) of the rows with weights 1 - I;
    it is empty for an epoch with too few links for the matrix
    (N <= state dimension). Every row is cold-started from
    ``solver._DEFAULT_START``, and all of them go through one
    ``solver.solve_batch`` call, so the output does not depend on how the
    epochs are split into calls.
    """
    groups = [_row_groups(epoch) for epoch in epochs]
    problems = []
    for epoch, epoch_groups in zip(epochs, groups):
        fix = epoch_problem(epoch, np.ones((1, epoch.n)))
        problems.append(fix)
        sat, pr, _, _, x0 = fix
        for links, kept, sub_idx in epoch_groups:
            w = np.ones((links.size, epoch.n))
            w[np.arange(links.size), links] = 0.0
            # Subset solves are cold-started on purpose: row n then depends
            # only on the N-1 retained measurements, so perturbing
            # measurement n cannot move its own row even at the last ulp. A
            # warm start from the all-in-view fix would leak the excluded
            # measurement into the iteration path.
            problems.append((sat, pr, sub_idx, w, x0[:, :3 + kept.size].repeat(links.size, 0)))
    solved = iter(solve_batch(problems))
    return [(tuple(a[0] for a in next(solved)), [(links, kept, next(solved)) for links, kept, _ in g])
            for g in groups]


def build_residual_matrix(epoch: Epoch, rows) -> ResidualMatrix:
    """Tabulate the residuals of each N-1 subset's equal-weight solve.

    Row n is the cold equal-weight ``solve_wls`` of the epoch without
    measurement n, bit for bit. ``rows`` is the epoch's entry of
    ``solve_rows``, whose kernel outputs the matrix is assembled from.
    Rows whose subset geometry is degenerate are filled with GAMMA and
    listed in ``failed_rows`` so downstream consumers see a consistent
    sentinel instead of a hard failure; a row whose solve hits the
    iteration cap keeps its iterate, as the fix does. An epoch without
    leave-one-out rows (no ``_row_groups``) raises NotEnoughMeasurements.
    """
    n = epoch.n
    if not rows[1]:
        raise NotEnoughMeasurements(f"N={n} leaves unsolvable subsets for state dim {epoch.state_dim()}")
    n_const = epoch.state_dim() - 3
    pr = epoch.pr_array()
    values = np.full((n, n), GAMMA)
    failed: list[int] = []
    for links, kept, (x, _, status, _) in rows[1]:
        bad = status == _kernels.STATUS_SINGULAR
        if np.count_nonzero(bad):
            failed.extend(links[bad].tolist())
            links, x = links[~bad], x[~bad]
        # The epoch-layout state of each row, clocks through the same
        # meters -> seconds -> meters round trip as a NavState; a dropped
        # constellation's clock is 0.
        full = np.zeros((len(x), 3 + n_const))
        full[:, :3] = x[:, :3]
        full[:, 3 + kept] = SPEED_OF_LIGHT * (x[:, 3:] / SPEED_OF_LIGHT)
        values[links] = pr - predicted_pseudoranges(epoch, full)
    values.ravel()[::n + 1] = GAMMA  # the diagonal
    return ResidualMatrix(values=values, failed_rows=sorted(failed))
