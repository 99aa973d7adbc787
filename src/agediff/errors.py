"""Exception types shared across the package.

Every error raised on purpose derives from :class:`AgediffError`, so callers
can catch the package's failures without swallowing genuine bugs.
"""

from __future__ import annotations


class AgediffError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(AgediffError):
    """A numeric or structural argument is outside its admissible range."""


class StabilityViolation(AgediffError):
    """The mesh ratios violate the explicit-scheme stability bound."""


class DimensionMismatch(AgediffError):
    """Array shapes are inconsistent with the mesh they claim to live on."""


class NonFiniteState(AgediffError):
    """The time-stepping state left the set of finite floating-point values.

    ``time_level`` carries the first offending time level when known.
    """

    def __init__(self, message: str, time_level: int | None = None):
        super().__init__(message)
        self.time_level = time_level


class ParseError(AgediffError):
    """An expression string could not be parsed.

    ``position`` is the zero-based character offset of the offending token.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class EvalError(AgediffError):
    """Expression evaluation hit a domain violation or a missing binding."""


class UnknownProblem(AgediffError):
    """The requested built-in problem id does not exist."""


class ConfigError(AgediffError):
    """A config file is malformed.

    ``line`` is the one-based line number of the offending entry.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
