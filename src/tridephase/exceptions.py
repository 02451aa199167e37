"""Exception types shared across the package."""


class TridephaseError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(TridephaseError):
    """Matrix dimensions or sparsity pattern do not match what was asked for."""


class ParameterError(TridephaseError):
    """A scalar parameter is outside its admissible domain."""


class HermiticityViolation(ParameterError):
    """Input matrix is further from Hermitian than the accepted tolerance."""


class MethodError(TridephaseError):
    """Evaluation method is incompatible with the reservoir configuration."""


class QuadratureError(TridephaseError):
    """The fixed Gauss-Kronrod rule's error estimate missed the tolerance."""

    def __init__(self, message: str, error_estimate: float):
        super().__init__(message)
        self.error_estimate = error_estimate


class NoCorrelationError(TridephaseError):
    """A time-scale was requested for a curve that starts at zero."""
