"""Leave-one-out residual matrix: the joint features fed to the network."""

from __future__ import annotations

from dataclasses import dataclass, field

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


def build_residual_matrix(epoch: Epoch) -> ResidualMatrix:
    """Solve each N-1 subset with equal weights and tabulate residuals.

    Row n is ``solver.equal_weight_fix`` on the epoch without measurement
    n, bit for bit. The rows that drop no constellation's only link run
    as one ``_kernels.lm_solve_batch`` call with weights [1; 1 - I]: its
    all-ones row is the epoch's equal-weight fix, returned as ``fix``. Each
    constellation whose only link a row drops adds one call for that row.
    Every row is cold-started from ``solver._DEFAULT_START``, as the fix is.
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
    n_const = epoch.state_dim() - 3
    sat, pr, const_idx = epoch.sat_array(), epoch.pr_array(), epoch.const_index()

    # A row that excludes the only measurement of a constellation solves
    # without that clock column, as the subset epoch would; its weight-0
    # measurement is parked on column 0. Rows are grouped by the
    # constellation they drop (-1: none), one batched solve per group. With
    # N > 3 + n_const at least one row drops none, so group -1 exists.
    members = np.bincount(const_idx, minlength=n_const)
    drops = np.where(members[const_idx] == 1, const_idx, -1)
    weights = 1.0 - np.eye(n)
    values = np.full((n, n), GAMMA)
    failed: list[int] = []
    for drop in np.unique(drops):
        rows = np.flatnonzero(drops == drop)
        kept = np.flatnonzero(np.arange(n_const) != drop)
        sub_idx = np.searchsorted(kept, const_idx)
        sub_idx[const_idx == drop] = 0
        w = weights[rows]
        if drop == -1:
            w = np.vstack([w, np.ones(n)])  # the fix, last
        # Subset solves are cold-started on purpose: row n then depends only
        # on the N-1 retained measurements, so perturbing measurement n
        # cannot move its own row even at the last ulp. A warm start from
        # the all-in-view fix would leak the excluded measurement into the
        # iteration path.
        x0 = np.zeros((w.shape[0], 3 + kept.size))
        x0[:, :3] = _DEFAULT_START.as_array()
        out = _kernels.lm_solve_batch(sat, pr, w, sub_idx, kept.size, x0, _kernels.MAX_ITERATIONS)
        if drop == -1:
            try:
                fix = fix_from_row(epoch, tuple(a[-1] for a in out))
            except SingularGeometry:
                fix = None
            links, kernel = rows, tuple(a[:-1] for a in out)
        x, status = out[0][:rows.size], out[2][:rows.size]
        ok = status != _kernels.STATUS_SINGULAR
        failed.extend(rows[~ok].tolist())
        # The epoch-layout state of each row, clocks through the same
        # meters -> seconds -> meters round trip as a NavState; a dropped
        # constellation's clock is 0.
        full = np.zeros((int(ok.sum()), 3 + n_const))
        full[:, :3] = x[ok, :3]
        full[:, 3 + kept] = SPEED_OF_LIGHT * (x[ok, 3:] / SPEED_OF_LIGHT)
        values[rows[ok]] = pr - predicted_pseudoranges(epoch, full)
    np.fill_diagonal(values, GAMMA)
    return ResidualMatrix(values=values, failed_rows=sorted(failed), fix=fix, links=links, kernel=kernel)
