"""Exact power-series prefixes and their rational-function continuations.

A graded family of measures is recorded as a prefix of its generating
series in the grading variable t.  When the prefix satisfies a linear
recurrence over the rationals, the series continues to a unique rational
function; its value at t=1 is the regularized measure.

``fit_series`` runs Berlekamp-Massey on coefficients it asks for one at
a time.  Each construction proves a bound d on the order of its series,
and the fit stops as soon as n >= L + d, where n is the number of
coefficients seen and L the current recurrence length: two rational
functions of orders L and <= d that agree on L + d coefficients are
equal, so that stop is a certificate, not a guess.  ``terms`` is only a
ceiling on the coefficients computed; a fit that reaches it without a
certificate is accepted only when the prefix holds at least 2L + 2
coefficients, and otherwise refused.  No unverified extrapolation is
ever reported, and ``Regularized.of`` holds each value against its routes.

Every fitted series of the constructions has integer coefficients, and
an integer series that is rational has an integer denominator with
constant term 1 (Fatou 1906).  So the fit first runs modulo 61-bit
primes, lifts the taps by CRT, and accepts the lift only after checking
it exactly over the integers on every coefficient seen; on any doubt
the same coefficients go to Berlekamp-Massey over the rationals, which
gives the answer or the error.  Both engines return the same series.
``min_recurrence``, the slow oracle they are tested against, solves one
Hankel system per order instead, never Berlekamp-Massey; it scales the
prefix to integers once and eliminates fraction-free (Bareiss), so it
stays independent of both engines without Fraction arithmetic.

Every construction returns one ``Regularized`` record: the series, its
value at t=1, the routes that value was held against, and the graded
counts behind the prefix.  ``Regularized.of`` is the one place that
builds it.  A series whose closed form is known (the power set, the
finite-range and the Schanuel map spaces) comes from ``closed_series``,
which checks its prefix against that form; every other series comes
from ``fit_series``.

Everything is immutable and pure.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import InputError, InternalCheckError, RegularizationError
from .limits import check_terms
from .rationals import as_fraction


def _coerce_coeffs(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(as_fraction(v) for v in values)


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with exact rational coefficients, ascending degree.

    The zero polynomial is the empty coefficient tuple; trailing zero
    coefficients are never stored.
    """

    coefficients: tuple[Fraction, ...] = ()

    def __post_init__(self):
        coeffs = _coerce_coeffs(self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def constant(cls, value) -> "Polynomial":
        return cls((as_fraction(value),))

    @classmethod
    def variable(cls) -> "Polynomial":
        return cls((Fraction(0), Fraction(1)))

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        """Degree, with the usual convention degree(0) = -1."""
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return Fraction(0)

    def evaluate(self, x) -> Fraction:
        x = as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def scale(self, factor) -> "Polynomial":
        f = as_fraction(factor)
        return Polynomial(tuple(c * f for c in self.coefficients))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coefficients), len(other.coefficients))
        return Polynomial(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial(())
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
        return Polynomial(tuple(out))

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise InputError("negative polynomial power; use RationalFunction")
        result = Polynomial.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def text(self, var: str = "t") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}{var}" if k == 1 else f"{mag}{var}^{k}"
                if not parts:
                    parts.append(term if c > 0 else f"-{term}")
                    continue
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def _poly_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    if b.is_zero:
        raise InputError("polynomial division by zero")
    quot = [Fraction(0)] * max(a.degree - b.degree + 1, 0)
    rem = list(a.coefficients)
    lead = b.coefficients[-1]
    while len(rem) >= len(b.coefficients):
        f = rem[-1] / lead
        shift = len(rem) - len(b.coefficients)
        quot[shift] = f
        for i, c in enumerate(b.coefficients):
            rem[shift + i] -= f * c
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            break
    return Polynomial(tuple(quot)), Polynomial(tuple(rem))


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor over the rationals."""
    while not b.is_zero:
        a, b = b, _poly_divmod(a, b)[1]
    if a.is_zero:
        return a
    return a.scale(1 / a.coefficients[-1])


_PROOF_PRIME = 2 ** 61 - 1
# The 64 largest primes below 2^61, _PROOF_PRIME first: enough for taps of
# about 1900 bits.  A fit that runs out of them falls back to the rationals.
_FIT_PRIMES = tuple(2 ** 61 - d for d in (
    1, 31, 45, 229, 259, 283, 339, 391, 403, 465, 531, 579, 675, 759, 799, 819,
    829, 843, 859, 939, 985, 1015, 1153, 1195, 1215, 1281, 1299, 1351, 1371, 1425,
    1489, 1525, 1533, 1543, 1609, 1621, 1669, 1741, 1753, 1813, 1845, 1849, 1855,
    1863, 1869, 1909, 1921, 1923, 1945, 1959, 2023, 2083, 2115, 2133, 2185, 2371,
    2373, 2383, 2385, 2401, 2539, 2551, 2595, 2605,
))


def _residues_mod_p(p: Polynomial) -> list[int] | None:
    """Coefficients of p times the lcm of their denominators, reduced mod
    _PROOF_PRIME; None when the prime divides the leading coefficient."""
    scale = math.lcm(*(c.denominator for c in p.coefficients))
    residues = [c.numerator * (scale // c.denominator) % _PROOF_PRIME for c in p.coefficients]
    return residues if residues[-1] else None


def _remainder_mod_p(a: list[int], b: list[int]) -> list[int]:
    a = list(a)
    inverse = pow(b[-1], -1, _PROOF_PRIME)
    while len(a) >= len(b):
        factor = a[-1] * inverse % _PROOF_PRIME
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * c) % _PROOF_PRIME
        while a and a[-1] == 0:
            a.pop()
    return a


def _coprime_mod_p(a: Polynomial, b: Polynomial) -> bool:
    """True only if a and b are proven coprime over the rationals.

    After clearing denominators, a common factor g of positive degree
    over Q can be taken primitive with integer coefficients; when the
    prime divides neither leading coefficient it does not divide lc(g)
    either, so g mod p keeps its degree and divides both images.  A
    constant gcd mod p therefore proves a constant gcd over Q.  False
    means "not proven", never "not coprime".
    """
    if a.is_zero or b.is_zero:
        return False
    x, y = _residues_mod_p(a), _residues_mod_p(b)
    if x is None or y is None:
        return False
    while y:
        x, y = y, _remainder_mod_p(x, y)
    return len(x) == 1


def _poly_div_exact(a: Polynomial, b: Polynomial) -> Polynomial:
    q, r = _poly_divmod(a, b)
    if not r.is_zero:
        raise InternalCheckError("inexact polynomial division")
    return q


@dataclass(frozen=True)
class RationalFunction:
    """Ratio of polynomials, kept coprime with denominator(0) = 1.

    Normalization happens at construction, so equality of values is
    structural equality.  Functions without a power series at t=0
    (denominator vanishing at 0 after reduction) are rejected.
    Coprimality is first proven by Euclid modulo a prime, which is cheap;
    only when that proof fails is the gcd taken over the rationals.
    """

    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self):
        num, den = self.numerator, self.denominator
        if not isinstance(num, Polynomial):
            num = Polynomial(tuple(num))
        if not isinstance(den, Polynomial):
            den = Polynomial(tuple(den))
        if den.is_zero:
            raise InputError("zero denominator")
        if not _coprime_mod_p(num, den):
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = _poly_div_exact(num, g)
                den = _poly_div_exact(den, g)
        c0 = den.coefficient(0)
        if c0 == 0:
            raise InputError("denominator vanishes at t=0; no power series there")
        object.__setattr__(self, "numerator", num.scale(1 / c0))
        object.__setattr__(self, "denominator", den.scale(1 / c0))

    def expand(self, last_index: int) -> tuple[Fraction, ...]:
        """Taylor coefficients c_0 .. c_last around t=0."""
        den = self.denominator.coefficients
        out: list[Fraction] = []
        for k in range(last_index + 1):
            acc = self.numerator.coefficient(k)
            for i in range(1, min(k, len(den) - 1) + 1):
                acc -= den[i] * out[k - i]
            out.append(acc)  # den[0] == 1 by normalization
        return tuple(out)

    def text(self, var: str = "t") -> str:
        num = self.numerator.text(var)
        if self.denominator.degree <= 0:
            return num
        return f"({num}) / ({self.denominator.text(var)})"


def eval_at_one(rf: RationalFunction) -> Fraction:
    """Value of the continuation at t=1, the regularized measure.

    Because numerator and denominator are coprime they cannot both
    vanish at 1; a vanishing denominator alone is a genuine pole.
    """
    d = rf.denominator.evaluate(1)
    n = rf.numerator.evaluate(1)
    if d == 0:
        if n == 0:
            raise InternalCheckError("coprime invariant violated: 0/0 at t=1")
        raise RegularizationError("no regularized value (pole at t=1)")
    return n / d


@dataclass(frozen=True)
class SeriesPrefix:
    """Known initial coefficients c_0..c_K of a graded series."""

    coefficients: tuple[Fraction, ...]
    grading: str = "rank"

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _coerce_coeffs(self.coefficients))
        if not self.coefficients:
            raise InputError("series prefix needs at least one coefficient")

    def __len__(self) -> int:
        return len(self.coefficients)


@dataclass(frozen=True)
class Recurrence:
    """Linear recurrence c_k = sum(taps[i] * c_{k-1-i}), valid for k >= order."""

    taps: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "taps", _coerce_coeffs(self.taps))

    @property
    def order(self) -> int:
        return len(self.taps)


def clear_denominators(values: Sequence) -> tuple[list[int], int]:
    """The integers s * v for the lcm s of the values' denominators, and s.

    Takes ints and Fractions; with s = 1 nothing is multiplied.
    """
    scale = math.lcm(*(v.denominator for v in values))
    if scale == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (scale // v.denominator) for v in values], scale


def solve_linear_system(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """Exact Gauss-Jordan solve; free variables are set to zero.

    Returns None when the system is inconsistent.  Fraction-free (Bareiss
    1968): each row of [A | b] is cleared of denominators with one lcm,
    and each pivot step replaces every other row by (p * a - f * b) // prev,
    where p is the new pivot and prev the one before it.  By Sylvester's
    identity every entry is then a minor of the integer matrix, so each
    division is exact, and every pivot row ends with the last pivot on its
    diagonal: that is the one denominator of the solution.
    """
    m = [clear_denominators([*row, b])[0] for row, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r, prev = 0, 1
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        row, p = m[r], m[r][c]
        for i, other in enumerate(m):
            if i != r:
                f = other[c]
                m[i] = [(p * a - f * b) // prev for a, b in zip(other, row)]
        pivots.append(c)
        r, prev = r + 1, p
        if r == len(m):
            break
    if any(row[ncols] for row in m[r:]):
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = Fraction(m[i][ncols], prev)
    return x


def check_max_order(max_order: int | None) -> None:
    """Refuse a negative max_order; None leaves the order to the caller."""
    if max_order is not None and max_order < 0:
        raise InputError(f"max_order must be at least 0, got {max_order}")


def series_window(
    order_bound: int, terms: int | None = None, max_order: int | None = None
) -> tuple[int, int]:
    """Coefficient ceiling (terms) and deepest accepted order (max_order).

    ``order_bound`` is an order the construction proves its series never
    exceeds.  A fit computes at most c_0..c_terms and usually stops much
    earlier, at its certificate (see fit_series).  By default max_order
    is order_bound and terms is the smallest value that also meets the
    2L + 2 length contract of an uncertified fit of order order_bound;
    a user-set terms or max_order replaces its default unchanged.  Either
    way terms must stay within limits.MAX_TERMS.
    """
    check_max_order(max_order)
    if terms is None:
        terms = check_terms(max(4 * order_bound - 2, 2 * order_bound + 1), order_bound)
    elif terms < 1:
        raise InputError(f"terms must be at least 1 to fit a recurrence, got {terms}")
    return check_terms(terms), order_bound if max_order is None else max_order


def min_recurrence(prefix: SeriesPrefix, max_order: int) -> Recurrence | None:
    """Minimal-order recurrence fitted on the first half of the prefix.

    One fraction-free Gauss-Jordan solve of the Hankel system per order
    (see solve_linear_system, which clears each row's denominators on its
    own), never Berlekamp-Massey: the slow, independent oracle that the
    tests and the verify suite hold fit_series against.

    The candidate is solved from coefficients c_0..c_{ceil(L/2)-1} and
    must then predict every remaining supplied coefficient exactly;
    otherwise the next order is tried.  That check runs over the
    integers: a recurrence does not change when its sequence is scaled,
    so the prefix is scaled to integers once, and the taps are taken
    over their common denominator.  Returns None when no recurrence of
    order <= max_order verifies.
    """
    n = len(prefix)
    if n < 2 * max_order + 2:
        raise InputError(
            f"prefix of length {n} is too short for max_order {max_order}; "
            f"need at least {2 * max_order + 2} coefficients"
        )
    values, fit_len = prefix.coefficients, (n + 1) // 2
    coeffs, _ = clear_denominators(values)
    for order in range(max_order + 1):
        solution = solve_linear_system(
            [values[k - order:k][::-1] for k in range(order, fit_len)], values[order:fit_len]
        )
        if solution is None:
            continue
        taps, scale = clear_denominators(solution)
        if _recurrence_holds(coeffs, taps, scale):
            return Recurrence(tuple(solution))
    return None


def _recurrence_holds(coeffs: Sequence[int], taps: Sequence[int], scale: int = 1) -> bool:
    """Exact integer check of scale * c_k = sum(taps[i] * c_{k-1-i}) for every k >= order."""
    order, backwards = len(taps), taps[::-1]
    lhs = coeffs if scale == 1 else [scale * c for c in coeffs]
    return all(
        lhs[k] == sum(map(operator.mul, backwards, coeffs[k - order:k]))
        for k in range(order, len(coeffs))
    )


def to_rational_function(prefix: SeriesPrefix, rec: Recurrence) -> RationalFunction:
    """The unique rational function matching the prefix with rec's denominator.

    The prefix is scaled to integers s * c_k and the taps to T_i over
    their common denominator D, so the denominator is (D - sum T_i t^i) / D
    and the numerator's convolution runs over the integers, divided by s
    once.  The recurrence must hold on the whole prefix, which is the
    re-expansion of the result (its denominator has constant term 1); a
    mismatch means the recurrence was not actually verified and is
    reported as an internal error.
    """
    coeffs, scale = clear_denominators(prefix.coefficients)
    taps, tap_scale = clear_denominators(rec.taps)
    if not _recurrence_holds(coeffs, taps, tap_scale):
        raise InternalCheckError("re-expansion of fitted rational function disagrees with prefix")
    den = [tap_scale] + [-t for t in taps]
    num = [sum(map(operator.mul, den[k::-1], coeffs)) for k in range(rec.order)]
    if scale != 1:
        num = [Fraction(c, scale) for c in num]
    return RationalFunction(Polynomial(tuple(num)), Polynomial(tuple(den)))


@dataclass(frozen=True)
class EulerSeries:
    """A series prefix together with its rational continuation.

    ``order_bound`` is set when a proven order bound certified the fit
    (the prefix holds at least order + order_bound coefficients); it is
    None for closed forms and for fits accepted by the 2L + 2 length
    contract.
    """

    prefix: SeriesPrefix
    closed_form: RationalFunction
    recurrence: Recurrence | None = None
    order_bound: int | None = None

    @property
    def fit_terms(self) -> int | None:
        """The 2 * order coefficients that fix a minimal recurrence (Massey
        1969); the remaining ones of the prefix verify it."""
        if self.recurrence is None:
            return None
        return 2 * self.recurrence.order

    def regularized_value(self) -> Fraction:
        return eval_at_one(self.closed_form)


@dataclass(frozen=True)
class Regularized:
    """A construction's series, its value at t=1 and the evidence for it.

    ``routes`` (route label -> value) all equal ``value``; each
    construction lists its independent formula last.  ``counts`` are the
    graded counts the coefficients were built from (support, breakpoint
    or pair counts), one per prefix coefficient; they are empty where the
    coefficients are the counts themselves.
    """

    series: EulerSeries
    value: Fraction
    routes: dict[str, Fraction]
    counts: tuple[int, ...]

    @classmethod
    def of(cls, series: EulerSeries, routes: dict[str, Fraction], counts=(),
           order_bound: int | None = None, **fields) -> "Regularized":
        """The record of the series' value at t=1, which every route must
        equal exactly; counts past the prefix's end (a modular fit left in
        doubt may have made them) are dropped.

        A fit on fewer than order + order_bound coefficients cannot be told
        from the series (two rational functions of orders e and d that agree
        on e + d coefficients are equal), so its disagreement is refused with
        "raise terms"; any other disagreement is a library bug.
        """
        value = series.regularized_value()
        if any(route != value for route in routes.values()):
            rec, n = series.recurrence, len(series.prefix)
            if order_bound is not None and rec is not None and n < rec.order + order_bound:
                raise RegularizationError(
                    f"the order-{rec.order} fit gives {value}, but {n} coefficients "
                    f"cannot verify it against order bound {order_bound}; raise terms"
                )
            named = ", ".join(f"{label} gives {route}" for label, route in routes.items())
            raise InternalCheckError(f"route disagreement: {named}")
        return cls(series, value, routes, tuple(counts[:len(series.prefix)]), **fields)

    @property
    def expected(self) -> Fraction:
        """The value of the independent formula, the last route."""
        return next(reversed(self.routes.values()))


def _expands_to(rf: RationalFunction, coeffs: Sequence) -> bool:
    """True when coeffs are the Taylor coefficients c_0, c_1, .. of rf,
    i.e. denominator * series = numerator term by term (over the
    integers when rf's coefficients are integers)."""
    num, den = rf.numerator.coefficients, rf.denominator.coefficients
    if all(c.denominator == 1 for c in num + den):
        num, den = [c.numerator for c in num], [c.numerator for c in den]
    return all(
        sum(map(operator.mul, den, reversed(coeffs[max(k + 1 - len(den), 0):k + 1])))
        == (num[k] if k < len(num) else 0)
        for k in range(len(coeffs))
    )


def closed_series(
    coefficient: Callable[[int], object],
    closed_form: RationalFunction,
    order_bound: int,
    terms: int | None = None,
    grading: str = "rank",
) -> EulerSeries:
    """The prefix c_0..c_terms of a series whose closed form is known.

    ``coefficient(k)`` is called once for each k in order.  terms
    defaults to the series_window ceiling for order_bound; an explicit
    terms may be 0 (one coefficient) and must stay within
    limits.MAX_TERMS.  The prefix must expand the closed form exactly.
    """
    if terms is None:
        terms, _ = series_window(order_bound)
    elif terms < 0:
        raise InputError(f"terms must be at least 0, got {terms}")
    check_terms(terms)
    coeffs = [coefficient(k) for k in range(terms + 1)]
    if not _expands_to(closed_form, coeffs):
        raise InternalCheckError("counts disagree with the closed form")
    return EulerSeries(SeriesPrefix(tuple(coeffs), grading), closed_form)


def _rational_massey_fit(
    coefficient: Callable[[int], object],
    last: int,
    max_order: int,
    order_bound: int | None,
    grading: str,
) -> EulerSeries:
    """Berlekamp-Massey over the rationals on c_0, c_1, .., c_last.

    After each coefficient, ``length`` is the order of the shortest
    recurrence generating every coefficient seen so far; it never
    decreases.  The fit stops early once order_bound certifies it.
    This engine decides every fit the modular one leaves in doubt, and
    is its test oracle.
    """
    coeffs: list[Fraction] = []
    conn = [Fraction(1)]  # connection polynomial: sum conn[i] c_{k-i} = 0
    prev, prev_disc, shift, length = [Fraction(1)], Fraction(1), 1, 0
    certified = False
    for k in range(last + 1):
        coeffs.append(as_fraction(coefficient(k)))
        disc = sum((conn[i] * coeffs[k - i] for i in range(len(conn))), Fraction(0))
        if disc:
            step = disc / prev_disc
            updated = conn + [Fraction(0)] * max(0, shift + len(prev) - len(conn))
            for i, b in enumerate(prev):
                updated[shift + i] -= step * b
            while updated[-1] == 0:
                updated.pop()
            if 2 * length <= k:
                prev, prev_disc, shift, length = conn, disc, 1, k + 1 - length
            else:
                shift += 1
            conn = updated
        else:
            shift += 1
        if length > max_order:
            raise RegularizationError(
                f"no linear recurrence of order <= {max_order} generates the first "
                f"{k + 1} coefficients; raise max_order"
            )
        if order_bound is not None and k + 1 >= length + order_bound:
            certified = True
            break
    if not certified and len(coeffs) < 2 * length + 2:
        raise RegularizationError(
            f"an order-{length} recurrence needs {2 * length + 2} coefficients to "
            f"verify, but terms allows {len(coeffs)}; raise terms"
        )
    taps = [-c for c in conn[1:]] + [Fraction(0)] * (length + 1 - len(conn))
    prefix = SeriesPrefix(tuple(coeffs), grading)
    rec = Recurrence(tuple(taps))
    return EulerSeries(
        prefix, to_rational_function(prefix, rec), rec, order_bound if certified else None
    )


class _ModularMassey:
    """Berlekamp-Massey over Z/p, fed one integer coefficient at a time."""

    def __init__(self, p: int):
        self.p, self.seq = p, []
        self.conn, self.prev, self.prev_disc, self.shift, self.length = [1], [1], 1, 1, 0

    def push(self, c: int) -> int:
        """Take the next coefficient; return the recurrence length so far."""
        p, seq, conn = self.p, self.seq, self.conn
        seq.append(c % p)
        k = len(seq) - 1
        disc = sum(map(operator.mul, conn, seq[k::-1])) % p
        if not disc:
            self.shift += 1
            return self.length
        step = disc * pow(self.prev_disc, -1, p) % p
        updated = conn + [0] * max(0, self.shift + len(self.prev) - len(conn))
        for i, b in enumerate(self.prev, self.shift):
            updated[i] = (updated[i] - step * b) % p
        while updated[-1] == 0:
            updated.pop()
        if 2 * self.length <= k:
            self.prev, self.prev_disc, self.shift, self.length = conn, disc, 1, k + 1 - self.length
        else:
            self.shift += 1
        self.conn = updated
        return self.length

    def taps(self) -> list[int]:
        return [-c % self.p for c in self.conn[1:]] + [0] * (self.length + 1 - len(self.conn))


def _symmetric(residues: list[int], modulus: int) -> list[int]:
    return [r - modulus if 2 * r > modulus else r for r in residues]


def _lift_taps(coeffs: list[int], first: _ModularMassey) -> list[int] | None:
    """Integer taps of length first.length that hold exactly on coeffs.

    The taps mod each further prime are combined by CRT until their
    symmetric lift stops changing; that lift is then checked over the
    integers.  None when a prime finds another length, the primes run
    out, or the stable lift fails the check.
    """
    modulus, residues = first.p, first.taps()
    lifted = _symmetric(residues, modulus)
    for p in _FIT_PRIMES[1:]:
        other = _ModularMassey(p)
        for c in coeffs:
            other.push(c)
        if other.length != first.length:
            return None
        inverse = pow(modulus, -1, p)
        residues = [r + modulus * ((s - r) * inverse % p) for r, s in zip(residues, other.taps())]
        modulus *= p
        stable, lifted = lifted, _symmetric(residues, modulus)
        if lifted == stable:
            return lifted if _recurrence_holds(coeffs, lifted) else None
    return None


def _massey_fit(
    coefficient: Callable[[int], object],
    last: int,
    max_order: int,
    order_bound: int | None,
    grading: str,
) -> EulerSeries:
    """Berlekamp-Massey on c_0, c_1, .., c_last, with the same result as
    _rational_massey_fit.

    While the coefficients are integers the fit runs modulo the first of
    _FIT_PRIMES and stops at the first n >= L + order_bound.  Its lift
    is accepted when L <= order_bound, the lifted recurrence holds over
    the integers on all n coefficients, and its continuation has reduced
    order exactly L: then L is the rational length at every step, so the
    rational engine would stop at the same n with the same taps (a
    recurrence of reduced order L is unique on 2L coefficients).  Any
    doubt (a non-integer coefficient, L > max_order mod p, a failed lift,
    no certificate within terms) hands the coefficients already computed
    to _rational_massey_fit, so each coefficient(k) is still called at
    most once.
    """
    if order_bound is None:  # no certificate is possible
        return _rational_massey_fit(coefficient, last, max_order, order_bound, grading)
    seen: list = []
    ints: list[int] = []
    first = _ModularMassey(_FIT_PRIMES[0])
    for k in range(last + 1):
        seen.append(coefficient(k))
        value = seen[k]
        if type(value) is not int and not (isinstance(value, Fraction) and value.denominator == 1):
            break
        ints.append(int(value))
        length = first.push(ints[k])
        if length > max_order:
            break
        if k + 1 >= length + order_bound:
            taps = _lift_taps(ints, first) if length <= order_bound else None
            if taps is not None:
                prefix, rec = SeriesPrefix(tuple(ints), grading), Recurrence(tuple(taps))
                rf = to_rational_function(prefix, rec)
                if max(rf.denominator.degree, rf.numerator.degree + 1) == length:
                    return EulerSeries(prefix, rf, rec, order_bound)
            break
    return _rational_massey_fit(
        lambda k: seen[k] if k < len(seen) else coefficient(k),
        last, max_order, order_bound, grading,
    )


def fit_series(
    coefficient: Callable[[int], object],
    order_bound: int,
    terms: int | None = None,
    max_order: int | None = None,
    grading: str = "rank",
) -> EulerSeries:
    """Certified rational continuation of a series known coefficient by coefficient.

    ``coefficient(k)`` is called once for each k = 0, 1, .. in order, and
    never for k beyond the terms ceiling of series_window.  The fit stops
    at the first n with n >= L + order_bound, where L is the order of
    the recurrence fitted to the n coefficients seen: the series has
    order <= order_bound, so it equals the fit.  When the ceiling comes
    first the fit is accepted under the 2L + 2 length contract or
    refused with "raise terms"; a recurrence longer than max_order is
    refused with "raise max_order".
    """
    terms, max_order = series_window(order_bound, terms, max_order)
    return _massey_fit(coefficient, terms, max_order, order_bound, grading)


def continue_series(prefix: SeriesPrefix, max_order: int | None = None) -> EulerSeries:
    """Fit a recurrence to a whole fixed prefix and attach the continuation.

    No order bound is known here, so every coefficient is used and the
    fit is accepted only under the 2L + 2 length contract.  max_order
    caps the order; None leaves it to the prefix length.
    """
    last, max_order = series_window(len(prefix), len(prefix) - 1, max_order)
    return _massey_fit(prefix.coefficients.__getitem__, last, max_order, None, prefix.grading)


def binomial_closed_form(m: int, lam, scale=1) -> RationalFunction:
    """scale * (1 + lam*t)^m: a polynomial for m >= 0, and
    scale / (1 + lam*t)^(-m) for m < 0."""
    power = Polynomial((Fraction(1), as_fraction(lam))) ** abs(m)
    if m >= 0:
        return RationalFunction(power.scale(scale), Polynomial.constant(1))
    return RationalFunction(Polynomial.constant(scale), power)


def binomial_prefix(
    m: int, lam, terms: int, grading: str = "rank"
) -> tuple[SeriesPrefix, RationalFunction]:
    """Prefix and closed form of (1 + lam*t)^m.

    Coefficients are generalized binomials binom(m, k) * lam^k; the
    closed form is binomial_closed_form(m, lam).
    """
    if terms < 0:
        raise InputError(f"terms must be at least 0, got {terms}")
    check_terms(terms)
    lam = as_fraction(lam)
    coeffs = [Fraction(1)]
    for k in range(terms):
        coeffs.append(coeffs[-1] * lam * (m - k) / (k + 1))
    return SeriesPrefix(tuple(coeffs), grading), binomial_closed_form(m, lam)
