"""Semantic exception hierarchy shared across the package."""


class ThreshnetError(Exception):
    """Base class for all package errors."""


class DomainError(ThreshnetError, ValueError):
    """Inputs violate an operation's contract (range, shape, parameter)."""


class CapacityError(ThreshnetError):
    """Requested computation exceeds a configured work or memory cap."""


class NumericError(ThreshnetError, ArithmeticError):
    """A numeric routine failed to converge or produced non-finite values."""


class RegimeError(ThreshnetError):
    """The requested quantity does not exist in this parameter regime."""


class DegenerateConditioningError(ThreshnetError):
    """Conditioning event has probability zero (no edges possible)."""


class UsageError(ThreshnetError):
    """Malformed command-line or config-file input."""


COUNT_CAP = 100_000_000  # the largest count of vertices, replicates, grid points, samples


def check_count(value, minimum: int, what: str, name: str = "n", cap: int = COUNT_CAP) -> int:
    """``value`` as an int; a DomainError below ``minimum``, a CapacityError above ``cap``."""
    value = int(value)
    if value < minimum:
        raise DomainError(f"{what} needs {name} >= {minimum}, got {name} = {value}")
    if value > cap:
        raise CapacityError(f"{what} needs {name} <= {cap}, got {name} = {value}")
    return value
