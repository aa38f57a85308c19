"""Exception hierarchy shared across the package."""


class LevyBurgersError(Exception):
    """Base class for all package errors."""


class ParameterError(LevyBurgersError, ValueError):
    """A parameter is outside its admissible range."""


class GridError(LevyBurgersError, ValueError):
    """The grid specification is unusable (too few points, an even count, ...)."""


class InputError(LevyBurgersError, ValueError):
    """Malformed input data (unsorted points, too few points, ...)."""


class OutOfDomainError(LevyBurgersError, ValueError):
    """A query point lies outside the covered domain."""


class WindowTooSmallError(LevyBurgersError, RuntimeError):
    """The grid window cannot dominate the parabolic tail; the global
    argmax may lie off-grid."""


class InsufficientDataError(LevyBurgersError, RuntimeError):
    """Too many replicates were dropped for the statistic to be meaningful."""
