"""Error taxonomy shared by the whole package.

Configuration problems raise ConfigError before any compute starts.  Runtime
guards raise the geometric errors, which carry enough context (node location,
offending value) to reconstruct what went wrong.
"""


class CentroflowError(Exception):
    """Base class for everything raised on purpose by this package."""


class ConfigError(CentroflowError):
    """Invalid configuration or input data, detected before compute."""


class GridError(CentroflowError):
    """Malformed grid or failed halo exchange."""


class GuardError(CentroflowError):
    """A runtime guard tripped on the geometry.

    where: node identifier (index for n=1, (face, i, j) for n=2)
    value: the offending quantity
    """

    def __init__(self, message, where=None, value=None):
        super().__init__(message)
        self.where = where
        self.value = value


class ConvexityLost(GuardError):
    """Uniform convexity failed: det(b) or an eigenvalue dropped to <= 0."""


class OriginCrossed(GuardError):
    """Support function hit zero: the origin is no longer interior."""


class NumericalBlowup(CentroflowError):
    """Non-finite values appeared during time stepping."""


class TransversalityLost(GuardError):
    """Frame determinant [X_1,...,X_n,X] too close to zero."""
