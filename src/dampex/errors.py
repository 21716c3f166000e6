"""Exception types shared across the package."""


class DampexError(Exception):
    """Base class for all package-specific errors."""


class QuadratureError(DampexError):
    """Adaptive quadrature did not reach the requested tolerance.

    Carries the best available value and the achieved error estimate so
    callers can decide whether to accept the result anyway.
    """

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


class SingularEvaluationError(DampexError):
    """Evaluation requested on (or too close to) the unit sphere in frequency."""

    def __init__(self, message, radius=None):
        super().__init__(message)
        self.radius = radius


class InsufficientOrderError(DampexError):
    """A moment table does not hold enough orders for the requested object."""


class ConfigError(DampexError):
    """A configuration document failed validation."""
