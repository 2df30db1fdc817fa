"""Single-epoch GNSS positioning with learned per-satellite weighting."""

from .geo import EcefPosition, EnuVector, GeodeticPosition, SPEED_OF_LIGHT
from .model import Band, ConstellationId, Epoch, NavState, PseudorangeMeasurement
from .solver import SolveReport, solve_wls

__version__ = "0.1.0"

__all__ = [
    "Band",
    "ConstellationId",
    "EcefPosition",
    "EnuVector",
    "Epoch",
    "GeodeticPosition",
    "NavState",
    "PseudorangeMeasurement",
    "SPEED_OF_LIGHT",
    "SolveReport",
    "solve_wls",
]
