"""The Fraction loops of ``eulermeasure.exact_series``, kept as a
reference for its tests.

The library's polynomial arithmetic, ``RationalFunction``'s
normalization and ``RationalFunction.expand`` run over integers on
cleared denominators and build one Fraction per output coefficient; its
``binomial_prefix`` steps by one integer ratio per coefficient.  The
functions here do the same work one Fraction operation at a time, as the
library did before (the gcd is Euclid's over the rationals); on every
input the two must give equal coefficients.  Polynomials are plain
tuples of Fractions in ascending degree, with trailing zeros dropped as
the library drops them.
"""

from __future__ import annotations

from fractions import Fraction


def trim(coeffs) -> tuple[Fraction, ...]:
    coeffs = tuple(Fraction(c) for c in coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def coefficient(a, k: int) -> Fraction:
    return a[k] if 0 <= k < len(a) else Fraction(0)


def evaluate(a, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def scale(a, factor) -> tuple[Fraction, ...]:
    return trim(c * Fraction(factor) for c in a)


def add(a, b) -> tuple[Fraction, ...]:
    n = max(len(a), len(b))
    return trim(coefficient(a, i) + coefficient(b, i) for i in range(n))


def sub(a, b) -> tuple[Fraction, ...]:
    return add(a, scale(b, -1))


def mul(a, b) -> tuple[Fraction, ...]:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def power(a, n: int) -> tuple[Fraction, ...]:
    result = (Fraction(1),)
    for _ in range(n):
        result = mul(result, a)
    return result


def expand(num, den, last_index: int) -> tuple[Fraction, ...]:
    """Taylor coefficients c_0 .. c_last of num / den, for den[0] == 1."""
    out: list[Fraction] = []
    for k in range(last_index + 1):
        acc = coefficient(num, k)
        for i in range(1, min(k, len(den) - 1) + 1):
            acc -= den[i] * out[k - i]
        out.append(acc)
    return tuple(out)


def binomial_prefix(m, lam, terms: int) -> tuple[Fraction, ...]:
    """binom(m, k) * lam^k for k = 0..terms, one Fraction step at a time."""
    m, lam = Fraction(m), Fraction(lam)
    coeffs = [Fraction(1)]
    for k in range(terms):
        coeffs.append(coeffs[-1] * lam * (m - k) / (k + 1))
    return tuple(coeffs)


def divmod_(a, b) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Quotient and remainder of a by b != 0, by long division."""
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    rem = list(a)
    while len(rem) >= len(b):
        f = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quot[shift] = f
        for i, c in enumerate(b):
            rem[shift + i] -= f * c
        rem = list(trim(rem))
    return trim(quot), tuple(rem)


def gcd(a, b) -> tuple[Fraction, ...]:
    """Monic gcd by Euclid over the rationals; () for two zeros."""
    while b:
        a, b = b, divmod_(a, b)[1]
    return scale(a, 1 / a[-1]) if a else a


def normal_form(num, den) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """num / den over their gcd, scaled so den(0) = 1; ZeroDivisionError
    when den is 0 or vanishes at 0 after the reduction."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    g = gcd(num, den)
    num, den = divmod_(num, g)[0], divmod_(den, g)[0]
    return scale(num, 1 / den[0]), scale(den, 1 / den[0])
