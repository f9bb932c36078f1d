"""Error and warning types shared across the package.

Every exception derives from :class:`ModelError` so callers (and the CLI)
can catch domain failures without swallowing programming errors.
"""


class ModelError(ValueError):
    """Base class for all domain errors raised by this package."""


class NonPositive(ModelError):
    """A quantity that must be positive (or non-negative) is not."""


class InvalidEfficiency(ModelError):
    """Detection efficiency outside the physical interval [0, 1]."""


class ZeroPower(ModelError):
    """Operation undefined at zero input power or zero drive ratio."""


class SingularMatrix(ModelError):
    """Frequency-domain system matrix is ill-conditioned.

    Raised when the condition number exceeds 1e12, which happens at a
    marginally stable operating point (a branch fold), where the linearized
    fluctuation model stops being meaningful.
    """


class UnstablePoint(ModelError):
    """Operating point lies at or beyond the parametric instability."""


class PositiveLossEntry(ModelError):
    """A loss budget entry with a positive dB value (gain) was supplied."""


class InfeasibleMeasurement(ModelError):
    """Measured variance at or below the vacuum floor set by the losses."""


class NoDip(ModelError):
    """Transmission trace shows no resonance dip to fit."""


class PoorFit(ModelError):
    """Fit converged but the residual exceeds the configured threshold."""


class Degenerate(ModelError):
    """Fit problem has no sensitivity to the requested parameter."""


class RankDeficient(ModelError):
    """Not enough independent samples to determine the model coefficients."""


class MetadataMismatch(ModelError):
    """Two traces that must share acquisition settings do not."""


class EmptyTrace(ModelError):
    """A trace with no samples was supplied."""


class SchemaError(ModelError):
    """Input file does not match the documented schema."""


class LinearizationWarning(UserWarning):
    """Operating point close enough to threshold that the linearized
    fluctuation model is expected to break down (distance x > 0.99)."""
