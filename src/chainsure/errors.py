"""Exception types shared across the package, and the number and seed checks
behind config errors."""

import numbers


def is_integer(value) -> bool:
    """True for an integer value; bool does not count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a real number, integers included; bool does not count."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_seed(seed) -> None:
    """Raise ConfigurationError unless seed is an unsigned 64-bit integer."""
    if not is_integer(seed) or not 0 <= seed < 2**64:
        raise ConfigurationError(f"seed must be an unsigned 64-bit integer, got {seed!r}")


class ChainsureError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(ChainsureError):
    """A config value is out of range or mutually inconsistent."""


class ContractionViolation(ConfigurationError):
    """The externality feedback is too strong: alpha * rho(G) >= 1."""

    def __init__(self, alpha_rho: float):
        self.alpha_rho = alpha_rho
        super().__init__(
            f"externality spectral condition violated: alpha * rho(G) = {alpha_rho:.6g} >= 1"
        )


class ConvergenceError(ChainsureError):
    """An iterative solver hit its iteration cap.

    Carries the last iterate and the residual at that point so callers can
    inspect how close the solve got.
    """

    def __init__(self, message: str, last_iterate=None, residual: float | None = None):
        self.last_iterate = last_iterate
        self.residual = residual
        if residual is not None:
            message = f"{message} (final residual {residual:.3e})"
        super().__init__(message)


class UniquenessViolation(ChainsureError):
    """Partition enumeration found zero or multiple consistent demand solutions."""
