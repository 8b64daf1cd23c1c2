"""Shared cap for the brute-force enumerations.

The default of ten million candidates can be overridden per call or,
globally, through the EULERMEASURE_ENUM_CAP environment variable.
"""

import os

from .errors import InputError

DEFAULT_ENUM_CAP = 10_000_000
ENUM_CAP_ENV_VAR = "EULERMEASURE_ENUM_CAP"


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
