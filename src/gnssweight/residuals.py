"""Leave-one-out residual matrix: the joint features fed to the network."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import NotEnoughMeasurements
from .geo import SPEED_OF_LIGHT
from .model import Epoch
from .solver import _DEFAULT_START, predicted_pseudoranges
from .solver import solve_wls  # noqa: F401  unused here; perfbench/tracing.py rebinds it by name

# Sentinel marking the deliberately excluded measurement (and rows whose
# subset solve failed). Far above any plausible residual magnitude.
GAMMA = 1e4


@dataclass
class ResidualMatrix:
    """N x N leave-one-out residuals; row n excludes measurement n.

    values[n, i] is the residual of measurement i against the equal-weight
    solution computed without measurement n; the diagonal is GAMMA.
    """

    values: np.ndarray
    failed_rows: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def build_residual_matrix(epoch: Epoch) -> ResidualMatrix:
    """Solve each N-1 subset with equal weights and tabulate residuals.

    Row n is ``solver.equal_weight_fix`` on the epoch without measurement
    n, bit for bit: the rows run as one ``_kernels.lm_solve_batch`` call
    with weights 1 - I (plus one call per constellation whose only link a
    row drops). Rows whose subset geometry is degenerate are
    filled with GAMMA and listed in ``failed_rows`` so downstream
    consumers see a consistent sentinel instead of a hard failure; a row
    whose solve hits the iteration cap keeps its iterate, as the fix does.
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
    # constellation they drop (-1: none), one batched solve per group.
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
        # Subset solves are cold-started on purpose: row n then depends only
        # on the N-1 retained measurements, so perturbing measurement n
        # cannot move its own row even at the last ulp. A warm start from
        # the all-in-view fix would leak the excluded measurement into the
        # iteration path.
        x0 = np.zeros((rows.size, 3 + kept.size))
        x0[:, :3] = _DEFAULT_START.as_array()
        x, _, status, _ = _kernels.lm_solve_batch(
            sat, pr, weights[rows], sub_idx, kept.size, x0, _kernels.MAX_ITERATIONS
        )
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
    return ResidualMatrix(values=values, failed_rows=sorted(failed))
