"""Exact power-series prefixes and their rational-function continuations.

A graded family of measures is recorded as a prefix of its generating
series in the grading variable t.  When the prefix satisfies a linear
recurrence over the rationals, the series continues to a unique rational
function; its value at t=1 is the regularized measure.  Fitting is done
with exact rational linear algebra and a held-out verification margin
(fit on the first half of the prefix, verify on the rest), so no
unverified extrapolation is ever reported.

Everything is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import InputError, InternalCheckError, RegularizationError
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
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = _poly_div_exact(num, g)
            den = _poly_div_exact(den, g)
        c0 = den.coefficient(0)
        if c0 == 0:
            raise InputError("denominator vanishes at t=0; no power series there")
        object.__setattr__(self, "numerator", num.scale(1 / c0))
        object.__setattr__(self, "denominator", den.scale(1 / c0))

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "RationalFunction":
        return cls(p, Polynomial.constant(1))

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

    def evaluate(self, x) -> Fraction:
        x = as_fraction(x)
        d = self.denominator.evaluate(x)
        if d == 0:
            raise RegularizationError(f"pole at t={x}")
        return self.numerator.evaluate(x) / d

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.numerator * other.denominator - other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.numerator * other.numerator, self.denominator * other.denominator
        )

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

    def _check_grading(self, other: "SeriesPrefix"):
        if self.grading != other.grading:
            raise InputError(
                f"grading mismatch: {self.grading!r} vs {other.grading!r}"
            )

    def add(self, other: "SeriesPrefix") -> "SeriesPrefix":
        self._check_grading(other)
        n = min(len(self), len(other))
        return SeriesPrefix(
            tuple(a + b for a, b in zip(self.coefficients[:n], other.coefficients[:n])),
            self.grading,
        )

    def scale(self, factor) -> "SeriesPrefix":
        f = as_fraction(factor)
        return SeriesPrefix(tuple(c * f for c in self.coefficients), self.grading)

    def cauchy_multiply(self, other: "SeriesPrefix") -> "SeriesPrefix":
        self._check_grading(other)
        n = min(len(self), len(other))
        out = [Fraction(0)] * n
        for k in range(n):
            out[k] = sum(
                (self.coefficients[i] * other.coefficients[k - i] for i in range(k + 1)),
                Fraction(0),
            )
        return SeriesPrefix(tuple(out), self.grading)

    def truncate(self, length: int) -> "SeriesPrefix":
        if length < 1:
            raise InputError("cannot truncate a prefix below one coefficient")
        return SeriesPrefix(self.coefficients[:length], self.grading)


@dataclass(frozen=True)
class Recurrence:
    """Linear recurrence c_k = sum(taps[i] * c_{k-1-i}), valid for k >= order."""

    taps: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "taps", _coerce_coeffs(self.taps))

    @property
    def order(self) -> int:
        return len(self.taps)

    def predicted(self, coeffs: Sequence[Fraction], k: int) -> Fraction:
        return sum(
            (tap * coeffs[k - 1 - i] for i, tap in enumerate(self.taps)), Fraction(0)
        )

    def holds_on(self, coeffs: Sequence[Fraction]) -> bool:
        return all(
            coeffs[k] == self.predicted(coeffs, k)
            for k in range(self.order, len(coeffs))
        )


def solve_linear_system(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """Exact Gauss-Jordan solve; free variables are set to zero.

    Returns None when the system is inconsistent.
    """
    ncols = len(rows[0]) if rows else 0
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    for i in range(r, len(m)):
        if m[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = m[i][ncols]
    return x


def series_window(
    order_bound: int, terms: int | None = None, max_order: int | None = None
) -> tuple[int, int]:
    """Prefix size (terms) and deepest fitted order (max_order) of one series.

    ``order_bound`` is an order the construction proves its series never
    exceeds; a prefix holds c_0..c_terms and min_recurrence fits on the
    first ceil((terms+1)/2) of them.  A fit window of 2*d coefficients
    fixes a recurrence of order <= d uniquely (Massey 1969), so by default
    max_order = order_bound and terms is the smallest value whose fit
    window holds 2*order_bound coefficients and that meets min_recurrence's
    length contract.  max_order is capped at what the prefix can verify.
    """
    if max_order is not None and max_order < 0:
        raise InputError(f"max_order must be at least 0, got {max_order}")
    if terms is None:
        terms = max(4 * order_bound - 2, 2 * order_bound + 1)
    elif terms < 1:
        raise InputError(f"terms must be at least 1 to fit a recurrence, got {terms}")
    return terms, min(order_bound if max_order is None else max_order, (terms - 1) // 2)


def min_recurrence(prefix: SeriesPrefix, max_order: int) -> Recurrence | None:
    """Minimal-order recurrence fitted on the first half of the prefix.

    The candidate is solved from coefficients c_0..c_{ceil(L/2)-1} and
    must then predict every remaining supplied coefficient exactly;
    otherwise the next order is tried.  Returns None when no recurrence
    of order <= max_order verifies.
    """
    coeffs = list(prefix.coefficients)
    n = len(coeffs)
    if n < 2 * max_order + 2:
        raise InputError(
            f"prefix of length {n} is too short for max_order {max_order}; "
            f"need at least {2 * max_order + 2} coefficients"
        )
    fit_len = (n + 1) // 2
    for order in range(max_order + 1):
        rows = [
            [coeffs[k - 1 - i] for i in range(order)] for k in range(order, fit_len)
        ]
        rhs = [coeffs[k] for k in range(order, fit_len)]
        solution = solve_linear_system(rows, rhs)
        if solution is None:
            continue
        rec = Recurrence(tuple(solution))
        if rec.holds_on(coeffs):
            return rec
    return None


def to_rational_function(prefix: SeriesPrefix, rec: Recurrence) -> RationalFunction:
    """The unique rational function matching the prefix with rec's denominator.

    The result is re-expanded and compared against the whole prefix;
    a mismatch means the recurrence was not actually verified and is
    reported as an internal error.
    """
    den = Polynomial((Fraction(1),) + tuple(-t for t in rec.taps))
    coeffs = prefix.coefficients
    num = Polynomial(
        tuple(
            sum(
                (den.coefficient(i) * coeffs[k - i] for i in range(min(k, rec.order) + 1)),
                Fraction(0),
            )
            for k in range(rec.order)
        )
    )
    rf = RationalFunction(num, den)
    if rf.expand(len(coeffs) - 1) != coeffs:
        raise InternalCheckError("re-expansion of fitted rational function disagrees with prefix")
    return rf


@dataclass(frozen=True)
class EulerSeries:
    """A series prefix together with its rational continuation, if known."""

    prefix: SeriesPrefix
    closed_form: RationalFunction | None = None
    recurrence: Recurrence | None = None

    @property
    def fit_terms(self) -> int | None:
        """Size of the fitting window when the closed form was fitted."""
        if self.recurrence is None:
            return None
        return (len(self.prefix) + 1) // 2

    def regularized_value(self) -> Fraction:
        if self.closed_form is None:
            raise RegularizationError("series has no closed form to evaluate")
        return eval_at_one(self.closed_form)

    def check_fit(self, expected, order_bound: int) -> None:
        """Refuse a fitted value that differs from an independently known one
        when the prefix is too short to tell the fit from the series: two
        rational functions of orders e and d that agree on e + d
        coefficients are equal.  Any other disagreement is a library bug,
        which the caller reports."""
        value = self.regularized_value()
        order = self.recurrence.order
        if value != expected and len(self.prefix) < order + order_bound:
            raise RegularizationError(
                f"the order-{order} fit gives {value}, but {len(self.prefix)} coefficients "
                f"cannot verify it against order bound {order_bound}; raise terms"
            )


def continue_series(prefix: SeriesPrefix, max_order: int | None = None) -> EulerSeries:
    """Fit a recurrence and attach the rational continuation.

    max_order is capped at the deepest order the prefix can verify; with
    max_order=None every such order is tried.
    """
    # No order bound is known here; the prefix length is the only limit.
    _, max_order = series_window(len(prefix), len(prefix) - 1, max_order)
    rec = min_recurrence(prefix, max_order)
    if rec is None:
        raise RegularizationError(
            f"no linear recurrence of order <= {max_order} verifies on the "
            f"{len(prefix)} supplied coefficients; raise terms or max_order"
        )
    return EulerSeries(prefix, to_rational_function(prefix, rec), rec)


def binomial_prefix(
    m: int, lam, terms: int, grading: str = "rank"
) -> tuple[SeriesPrefix, Union[Polynomial, RationalFunction]]:
    """Prefix and closed form of (1 + lam*t)^m.

    Coefficients are generalized binomials binom(m, k) * lam^k; the
    closed form is a Polynomial for m >= 0 and 1/(1+lam*t)^(-m) for
    m < 0.
    """
    if terms < 0:
        raise InputError("terms must be non-negative")
    lam = as_fraction(lam)
    coeffs = [Fraction(1)]
    for k in range(terms):
        coeffs.append(coeffs[-1] * lam * (m - k) / (k + 1))
    base = Polynomial((Fraction(1), lam))
    closed: Union[Polynomial, RationalFunction]
    if m >= 0:
        closed = base ** m
    else:
        closed = RationalFunction(Polynomial.constant(1), base ** (-m))
    return SeriesPrefix(tuple(coeffs), grading), closed
