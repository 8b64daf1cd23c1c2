"""Exception hierarchy shared by every module.

Errors fall into the classes surfaced by the CLI: input, resource,
regularization-failure and internal.  Each class carries its CLI label
and exit code so the front end never has to pattern-match messages.
"""


class EulerMeasureError(Exception):
    """Base class for all library errors."""

    cli_class = "error"
    exit_code = 1


class InputError(EulerMeasureError):
    """Malformed or out-of-contract input."""

    cli_class = "input"
    exit_code = 2


class UnsupportedDomainError(InputError):
    """Input is valid but outside the supported domain of an operation."""


class ParseError(InputError):
    """Set-expression syntax error; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class ResourceLimitError(EulerMeasureError):
    """A size ceiling (limits.py) or an oracle's enumeration cap would be exceeded."""

    cli_class = "resource"
    exit_code = 3


class RegularizationError(EulerMeasureError):
    """No exact rational continuation exists, or it has a pole at t=1."""

    cli_class = "regularization-failure"
    exit_code = 4


class InternalCheckError(EulerMeasureError):
    """A cross-check that must hold by construction failed (library bug)."""

    cli_class = "internal"
    exit_code = 5
