"""Coercion helpers for exact rationals.

Every quantity in this package is an exact ``fractions.Fraction``;
floating-point values are rejected rather than converted, since a float
that reaches the core would silently poison exactness.
"""

from fractions import Fraction

from .errors import InputError


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to a Fraction.

    Floats are refused on purpose: callers must supply exact input.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"cannot interpret {value!r} as a rational number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise InputError(f"division by zero in rational literal {value!r}") from None
        except ValueError:
            raise InputError(f"not a rational literal: {value!r}") from None
    if isinstance(value, float):
        raise InputError(
            f"refusing float {value!r}: this library is exact, pass int, Fraction or 'p/q'"
        )
    raise InputError(f"cannot interpret {value!r} as a rational number")


def as_integer(value, refusal: str) -> int:
    """value as an int: 2.0 or Fraction(4, 2) pass as 2; 2.5, "2", True or
    None are refused with an InputError that reads refusal, then the value."""
    try:
        size = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        size = None
    if size is None or size != value:
        raise InputError(f"{refusal}, got {value!r}")
    return size
