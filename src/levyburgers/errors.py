"""Exception hierarchy shared across the package.

Each class carries, as ``exit_code``, the status the CLI exits with when
the error ends a run; bad input of any kind exits 2.
"""


class LevyBurgersError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ParameterError(LevyBurgersError, ValueError):
    """A parameter is outside its admissible range."""

    exit_code = 2


class GridError(LevyBurgersError, ValueError):
    """The grid specification is unusable (too few points, an even count, ...)."""

    exit_code = 2


class InputError(LevyBurgersError, ValueError):
    """Malformed input data (unsorted points, too few points, ...)."""

    exit_code = 2


class OutOfDomainError(LevyBurgersError, ValueError):
    """A query point lies outside the covered domain."""

    exit_code = 5


class WindowTooSmallError(LevyBurgersError, RuntimeError):
    """The grid window cannot dominate the parabolic tail; the global
    argmax may lie off-grid."""

    exit_code = 3


class InsufficientDataError(LevyBurgersError, RuntimeError):
    """Too many replicates were dropped for the statistic to be meaningful."""

    exit_code = 4
