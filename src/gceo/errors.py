"""Exception hierarchy shared across the package."""


class GceoError(Exception):
    """Base class for all package-specific errors."""


class ArgumentError(GceoError, ValueError):
    """An input violates a documented precondition."""


class InfeasibleDistortionError(ArgumentError):
    """Requested distortion lies below the saturation floor of the instance."""


class InternalInconsistencyError(GceoError):
    """A structural invariant failed; usually a tolerance set too loose."""


class ConvergenceError(GceoError):
    """An iterative solver finished with residuals above its contract."""
