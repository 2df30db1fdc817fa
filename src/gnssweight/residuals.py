"""Leave-one-out residual matrix: the joint features fed to the network."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotEnoughMeasurements, SingularGeometry
from .model import Epoch, NavState
from .solver import SolverConfig, equal_weight_fix, predicted_pseudoranges, state_to_vector
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


def _subset_epoch(epoch: Epoch, skip: int) -> Epoch:
    ms = [m for i, m in enumerate(epoch.measurements) if i != skip]
    return Epoch(time=epoch.time, measurements=ms, truth=epoch.truth, session_id=epoch.session_id)


def build_residual_matrix(epoch: Epoch, cfg: SolverConfig | None = None) -> ResidualMatrix:
    """Solve each N-1 subset with equal weights and tabulate residuals.

    Rows whose subset geometry is degenerate are filled with GAMMA and
    listed in ``failed_rows`` so downstream consumers see a consistent
    sentinel instead of a hard failure.
    """
    if cfg is None:
        cfg = SolverConfig()
    n = epoch.n
    if n < epoch.state_dim() + 1:
        raise NotEnoughMeasurements(
            f"N={n} leaves unsolvable subsets for state dim {epoch.state_dim()}"
        )

    # Subset solves are cold-started on purpose: row n then depends only on
    # the N-1 retained measurements, so perturbing measurement n cannot move
    # its own row even at the last ulp. A warm start from the all-in-view
    # fix would leak the excluded measurement into the iteration path.
    values = np.full((n, n), GAMMA)
    failed: list[int] = []
    for row in range(n):
        sub = _subset_epoch(epoch, row)
        try:
            state = equal_weight_fix(sub, cfg).state
        except (SingularGeometry, NotEnoughMeasurements):
            failed.append(row)
            continue
        res = _epoch_residuals(epoch, state)
        values[row, :] = res
        values[row, row] = GAMMA
    return ResidualMatrix(values=values, failed_rows=failed)


def _epoch_residuals(epoch: Epoch, state: NavState) -> np.ndarray:
    x = state_to_vector(epoch, state)
    return epoch.pr_array() - predicted_pseudoranges(epoch, x)
