"""Shared caps: brute-force enumerations and the series length.

The default of ten million candidates can be overridden per call or,
globally, through the EULERMEASURE_ENUM_CAP environment variable.  The
series ceiling MAX_TERMS is fixed: it sits above the default window of
every documented input (4d - 2 coefficients for order bound d; fib on
2000 pieces needs 8002) and is checked before any coefficient is counted.
"""

import os

from .errors import InputError, ResourceLimitError

DEFAULT_ENUM_CAP = 10_000_000
ENUM_CAP_ENV_VAR = "EULERMEASURE_ENUM_CAP"
MAX_TERMS = 10_000


def enumeration_cap(explicit: int | None = None) -> int:
    if explicit is not None:
        return explicit
    raw = os.environ.get(ENUM_CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        value = int(raw)
    except ValueError:
        raise InputError(
            f"{ENUM_CAP_ENV_VAR} must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise InputError(f"{ENUM_CAP_ENV_VAR} must be at least 0, got {value}")
    return value


def check_terms(terms: int, default_for: int | None = None) -> int:
    """terms itself, refused when it lies above the fixed series ceiling;
    ``default_for`` is the order bound a default terms was derived from."""
    if terms > MAX_TERMS:
        origin = "" if default_for is None else f" (the default for order bound {default_for})"
        raise ResourceLimitError(
            f"terms {terms}{origin} exceeds the ceiling of {MAX_TERMS} series coefficients"
        )
    return terms
