"""Exception hierarchy for the gnssweight package."""


class GnssWeightError(Exception):
    """Base class for all package errors."""


class NearGeocenter(GnssWeightError):
    """ECEF point too close to the geocenter for a geodetic conversion."""


class ZeroRange(GnssWeightError):
    """Satellite and receiver positions coincide."""


class MissingTruth(GnssWeightError):
    """Operation requires a ground-truth position the epoch does not carry."""


class SingularGeometry(GnssWeightError):
    """Weighted normal matrix is numerically singular (condition > limit)."""


class NotEnoughMeasurements(GnssWeightError):
    """Fewer usable measurements than unknowns."""


class NonConvergence(GnssWeightError):
    """Solver hit the iteration cap while the cost was still falling.

    Carries the best iterate found so far in ``report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NonMonotonicTime(GnssWeightError):
    """Epoch time regressed within a tracking session."""


class ShapeMismatch(GnssWeightError):
    """Array shapes inconsistent with the model configuration."""


class EmptySplit(GnssWeightError):
    """A dataset split required for training/calibration is empty."""


class EmptySamples(GnssWeightError):
    """Quantile requested from an empty sample set."""


class HorizonSingularity(GnssWeightError):
    """Elevation at or below the mask; parametric sigma undefined."""


class ConfigInvalid(GnssWeightError):
    """Scenario or pipeline configuration violates its constraints."""


class ParseError(GnssWeightError):
    """Dataset file malformed; carries the 1-based line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class VersionMismatch(GnssWeightError):
    """Dataset or checkpoint written by an unsupported format version."""
