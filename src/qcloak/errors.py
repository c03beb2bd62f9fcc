"""Exception types shared across the package."""


class QcloakError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QcloakError, ValueError):
    """An argument fell outside the mathematical domain of an operation."""


class SingularRegionError(DomainError):
    """Evaluation was requested inside the degenerate region of a cloak map."""


class ResolutionError(QcloakError, ValueError):
    """A smoothing width or grid step is too coarse/fine to be meaningful."""


class GeometryError(QcloakError, ValueError):
    """Shell lists are non-contiguous, empty, or otherwise malformed."""


class ConfigurationError(QcloakError, ValueError):
    """A solver or CLI configuration value is unusable."""


class NearEigenvalueError(QcloakError, ArithmeticError):
    """A boundary value crossed below threshold: the requested energy sits on
    (or numerically at) a Dirichlet eigenvalue of the full problem."""

    def __init__(self, message, l=None, E=None):
        super().__init__(message)
        self.l = l
        self.E = E


class EigenvalueProximityRefusal(QcloakError, RuntimeError):
    """Run refused because the working energy is too close to an excluded
    eigenvalue (free Dirichlet on the outer ball, or an interior trap energy).

    Carries the offending eigenvalue so front ends can print it.
    """

    def __init__(self, message, eigenvalue=None, kind=""):
        super().__init__(message)
        self.eigenvalue = eigenvalue
        self.kind = kind
