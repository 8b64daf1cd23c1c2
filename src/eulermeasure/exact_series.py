"""Exact power-series prefixes and their rational-function continuations.

A graded family of measures is recorded as a prefix of its generating
series in the grading variable t; the series continues to a rational
function, whose value at t=1 is the regularized measure.

By Theorem 1 the k-subsets of a set A have Euler measure
binom(chi(A), k), so each series here is sum_k binom(m, k) n_k t^k for
the count n_k over one fixed k-subset.  A construction declares it as a
``Construction`` and ``regularize`` runs it, the whole runner: it sizes
the window (``series_window``), so a window that is too large is
refused before any work, builds the closed form, certifies the counts
against it, computes the value at t=1 once and returns one
``Regularized`` record: the series, its value, the routes that value
was held against, and the graded counts behind the prefix.

Each construction proves a bound d on its series' order.  Two rational
functions of orders L and <= d that agree on L + d coefficients are
equal, so by default regularize computes exactly L + d coefficients,
L the closed form's order: that agreement is a certificate, not a
guess.  A closed form with L > d is a library bug, refused before any
count, so the default prefix never passes the window 2d - 1, the most a
certificate needs; an explicit ``terms`` sets how much is shown.

Every closed form a construction builds is a ``FactoredForm``, an
integer numerator N over a positive integer scale s and a product of
linear factors: (N/s) / prod_j (1 + lam_j t)^(m_j), with distinct
nonzero integers lam_j.  The certificate needs no polynomial product:
each factor is applied to the counted prefix as m_j linear passes
c_k += lam_j c_(k-1), big times small integers, and what remains times s
must be N term by term.  The form is reduced because N does not vanish
at any root -1/lam_j of its denominator, checked over the integers when
it is built, so no gcd is ever taken; its value at t=1 is
N(1) / (s prod_j (1 + lam_j)^(m_j)), computed once.  ``closed_form``
expands it to a RationalFunction only when a report reads it.

``continue_series`` is the one fit: Berlekamp-Massey over the
rationals on a fixed prefix.  With an order bound it stops at the same
certificate, n >= L + d for the length L of the recurrence fitted to
the n coefficients seen; without one a fit is accepted only when the
prefix holds at least 2L + 2 coefficients.  No construction fits its
series: the fit is the oracle that the verify suite and the tests hold
every closed form against.  ``min_recurrence``, the slow oracle of the
fit, solves one Hankel system per order instead, never Berlekamp-Massey;
it scales the prefix to integers once and eliminates fraction-free
(Bareiss) on those integers, so it stays independent of the fit without
Fraction arithmetic.

Polynomial arithmetic runs over cleared denominators the same way: the
coefficients of each operand are scaled to integers over one scale
(``clear_denominators``), products are integer convolutions, values are
Horner's rule on p/q over the integers, and one Fraction is built per
output coefficient.  A RationalFunction is reduced by the integer gcd of
its two polynomials, the primitive remainder sequence, and exact integer
quotients; ``RationalFunction.expand`` keeps running integers as well,
and ``binomial_prefix`` steps each coefficient from the last by an
integer ratio.  Every coefficient a caller sees is still an exact
Fraction.

Everything is immutable and pure.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import InputError, InternalCheckError, RegularizationError
from .limits import check_terms
from .partition_combinatorics import integer_binomial
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
    def _over(cls, numerators: list[int], scale: int) -> "Polynomial":
        """The polynomial with coefficients numerators[i] / scale, scale != 0:
        trailing zeros dropped, one Fraction per coefficient."""
        while numerators and not numerators[-1]:
            numerators.pop()
        poly = object.__new__(cls)
        coeffs = map(Fraction, numerators) if scale == 1 else (
            Fraction(c, scale) for c in numerators)
        object.__setattr__(poly, "coefficients", tuple(coeffs))
        return poly

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
        """Horner's rule on x = p/q over the integers: for the coefficients
        C_i / s of degree n, sum_i C_i p^i q^(n-i) over s q^n."""
        x = as_fraction(x)
        if self.is_zero:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        ints, scale = clear_denominators(self.coefficients)
        acc, power = ints[-1], 1
        for c in reversed(ints[:-1]):
            power *= q
            acc = acc * p + c * power
        return Fraction(acc, scale * power)

    def scale(self, factor) -> "Polynomial":
        f = as_fraction(factor)
        ints, scale = clear_denominators(self.coefficients)
        return Polynomial._over([c * f.numerator for c in ints], scale * f.denominator)

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other over the two operands' common scale."""
        ints, scale = clear_denominators(self.coefficients + other.coefficients)
        n = len(self.coefficients)
        return Polynomial._over(
            [a + sign * b for a, b in itertools.zip_longest(ints[:n], ints[n:], fillvalue=0)],
            scale)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, 1)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, -1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, s = clear_denominators(self.coefficients)
        b, t = clear_denominators(other.coefficients)
        return Polynomial._over(convolve(a, b), s * t)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise InputError("negative polynomial power; use RationalFunction")
        ints, scale = clear_denominators(self.coefficients)
        out = [1]
        for _ in range(n):
            out = convolve(out, ints)
        return Polynomial._over(out, scale ** n)

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


def _primitive(p: list[int]) -> list[int]:
    """p over its content, with a positive leading coefficient; [] for 0."""
    content = math.gcd(*p)
    if p and p[-1] < 0:
        content = -content
    return p if content == 1 else [c // content for c in p]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A nonzero integer multiple of a mod b, for deg a >= deg b >= 1: each
    step cancels a's top term against b, both sides divided by their gcd."""
    rem, lead, n = list(a), b[-1], len(b)
    while len(rem) >= n:
        top = rem.pop()
        g = math.gcd(lead, top)
        keep, cut, shift = lead // g, top // g, len(rem) - n + 1
        rem = [keep * c for c in rem]
        for i, c in enumerate(b[:-1]):
            rem[shift + i] -= cut * c
        while rem and not rem[-1]:
            rem.pop()
    return rem


def _integer_gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd, positive leading coefficient, of two integer
    polynomials; [] when both are 0.

    The primitive remainder sequence (Brown 1971; Knuth, TAOCP 4.6.1):
    by Gauss's lemma a gcd over the rationals is, up to a constant, the
    primitive gcd over the integers, and each pseudo-remainder divided by
    its content stays a multiple of it, so no Fraction is built.
    """
    if len(a) < len(b):
        a, b = b, a
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return [1] if b else a


def _divide_exact(a: list[int], b: list[int]) -> list[int]:
    """a / b over the integers, for b != 0; a remainder is a library bug."""
    rem, lead, n = list(a), b[-1], len(b)
    quot = [0] * max(len(a) - n + 1, 0)
    for shift in reversed(range(len(quot))):
        f, r = divmod(rem[shift + n - 1], lead)
        if r:
            raise InternalCheckError("inexact polynomial division")
        quot[shift] = f
        for i, c in enumerate(b):
            rem[shift + i] -= f * c
    if any(rem):
        raise InternalCheckError("inexact polynomial division")
    return quot


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor over the rationals."""
    g = _integer_gcd(clear_denominators(a.coefficients)[0],
                     clear_denominators(b.coefficients)[0])
    return Polynomial._over(g, g[-1]) if g else Polynomial()


@dataclass(frozen=True)
class RationalFunction:
    """Ratio of polynomials, kept coprime with denominator(0) = 1.

    Normalization happens at construction, so equality of values is
    structural equality.  Functions without a power series at t=0
    (denominator vanishing at 0 after reduction) are rejected.  Both
    polynomials are cleared of denominators, divided exactly by their
    integer gcd (``_integer_gcd``) and scaled by the denominator's constant
    term, one Fraction per coefficient.
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
        # num / den = (a / s) / (b / r) = (r a) / (s b)
        a, s = clear_denominators(num.coefficients)
        b, r = clear_denominators(den.coefficients)
        g = _integer_gcd(a, b)
        if len(g) > 1:
            a, b = _divide_exact(a, g), _divide_exact(b, g)
        c0 = b[0]
        if not c0:
            raise InputError("denominator vanishes at t=0; no power series there")
        object.__setattr__(self, "numerator", Polynomial._over([r * c for c in a], s * c0))
        object.__setattr__(self, "denominator", Polynomial._over(b, c0))

    @classmethod
    def from_reduced(cls, numerator: Polynomial, denominator: Polynomial) -> "RationalFunction":
        """numerator / denominator as given, for a caller that has proven
        them coprime with denominator(0) = 1: the normal form, unchecked."""
        rf = object.__new__(cls)
        object.__setattr__(rf, "numerator", numerator)
        object.__setattr__(rf, "denominator", denominator)
        return rf

    @property
    def order(self) -> int:
        """The order of the shortest recurrence its Taylor coefficients
        satisfy: max(deg denominator, deg numerator + 1), 0 for 0."""
        return max(self.denominator.degree, self.numerator.degree + 1)

    def expand(self, last_index: int) -> tuple[Fraction, ...]:
        """Taylor coefficients c_0 .. c_last around t=0, over the integers.

        With the numerator N / s and the denominator D / r in integers
        (D_0 = r, as the denominator's constant term is 1), c_k is
        g_k / (s r^k) for g_k = r^k N_k - sum_(i>=1) D_i r^(i-1) g_(k-i).
        """
        num, s = clear_denominators(self.numerator.coefficients)
        den, r = clear_denominators(self.denominator.coefficients)
        weights = [d * r ** i for i, d in enumerate(den[1:])]
        num += [0] * (last_index + 1 - len(num))
        lifted: list[int] = []
        out: list[Fraction] = []
        power = 1  # r^k
        for k in range(last_index + 1):
            g = power * num[k] - sum(map(operator.mul, weights, reversed(lifted)))
            lifted.append(g)
            out.append(Fraction(g, s * power))
            power *= r
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


def convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer polynomials, ascending coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _binomial_power(lam, n: int) -> list:
    """The coefficients binom(n, i) * lam^i of (1 + lam*t)^n, n >= 0."""
    return [math.comb(n, i) * lam ** i for i in range(n + 1)]


def times_factors(coeffs: Sequence, factors: Iterable[tuple[int, int]]) -> list:
    """The first len(coeffs) coefficients of coeffs * prod (1 + lam*t)^m,
    by m linear passes c_k += lam * c_(k-1) per factor; pad coeffs with
    zeros for the whole product."""
    out = list(coeffs)
    for lam, m in factors:
        for _ in range(m):
            out[1:] = map(operator.add, out[1:], map(operator.mul, itertools.repeat(lam), out))
    return out


def _homogenized_at(numerator: Sequence[int], lam: int) -> int:
    """lam^deg * N(-1/lam) over the integers: zero exactly when N(-1/lam) is."""
    acc = 0
    for i, c in enumerate(numerator):
        acc = acc * lam + (-c if i % 2 else c)
    return acc


@dataclass(frozen=True)
class FactoredForm:
    """The closed form (N/s) / prod_j (1 + lam_j t)^(m_j) of a construction.

    ``numerator`` holds the integers N_0, N_1, .. of N, ``scale`` the
    positive integer s and ``factors`` the pairs (lam_j, m_j) of distinct
    nonzero integers lam_j and multiplicities m_j >= 1.  Factors with
    lam = 0 are 1 and dropped; a zero numerator is 0/1.  The form is
    reduced by construction: the only roots of the denominator are the
    -1/lam_j, and N must not vanish at any of them, evaluated over the
    integers; a form that would need reducing is a library bug.
    """

    numerator: tuple[int, ...]
    scale: int = 1
    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        num = list(self.numerator)
        while num and num[-1] == 0:
            num.pop()
        factors = tuple((lam, m) for lam, m in self.factors if lam) if num else ()
        lams = [lam for lam, _ in factors]
        if self.scale < 1 or len(set(lams)) < len(lams) or any(m < 1 for _, m in factors):
            raise InternalCheckError(f"malformed closed form: scale {self.scale}, factors {factors}")
        for lam in lams:
            if not _homogenized_at(num, lam):
                raise InternalCheckError(f"closed form not reduced: numerator vanishes at -1/{lam}")
        object.__setattr__(self, "numerator", tuple(num))
        object.__setattr__(self, "scale", self.scale if num else 1)
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        """max(deg denominator, deg numerator + 1), 0 for 0, as for RationalFunction."""
        return max(sum(m for _, m in self.factors), len(self.numerator))

    def certifies(self, coeffs: Sequence) -> bool:
        """True when coeffs are the Taylor coefficients c_0, c_1, .. of the
        form: each factor applied as linear passes over the prefix leaves
        N/s, so s times the result must be N term by term."""
        num = self.numerator
        return all(self.scale * c == (num[k] if k < len(num) else 0)
                   for k, c in enumerate(times_factors(coeffs, self.factors)))

    def value_at_one(self) -> Fraction:
        """N(1) / (s * prod (1 + lam_j)^m_j).  lam_j = -1 is a pole: N(1) is
        not 0 there, since the form is reduced."""
        den = math.prod((1 + lam) ** m for lam, m in self.factors)
        if den == 0:
            raise RegularizationError("no regularized value (pole at t=1)")
        return Fraction(sum(self.numerator), self.scale * den)

    def rational_function(self) -> RationalFunction:
        """The same function as a RationalFunction, the denominator
        expanded once; it is reduced already, so nothing is proven again."""
        den = [1]
        for lam, m in self.factors:
            den = convolve(den, _binomial_power(lam, m))
        num = tuple(Fraction(c, self.scale) for c in self.numerator)
        return RationalFunction.from_reduced(Polynomial(num), Polynomial(tuple(den)))


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

    Returns None when the system is inconsistent.  Each row of [A | b] is
    cleared of denominators with one lcm and the integer matrix is solved
    by _solve_integer_system.
    """
    ncols = len(rows[0]) if rows else 0
    solved = _solve_integer_system(
        [clear_denominators([*row, b])[0] for row, b in zip(rows, rhs)], ncols)
    if solved is None:
        return None
    numerators, denominator = solved
    return [Fraction(x, denominator) for x in numerators]


def _solve_integer_system(m: list[list[int]], ncols: int) -> tuple[list[int], int] | None:
    """Solve the integer system [A | b] of the rows m, modified in place:
    the numerators of a solution over one common denominator, or None when
    the system is inconsistent.  Free variables are set to zero.

    Fraction-free (Bareiss 1968): each pivot step replaces every other row
    by (p * a - f * b) // prev, where p is the new pivot and prev the one
    before it.  By Sylvester's identity every entry is then a minor of the
    integer matrix, so each division is exact, and every pivot row ends
    with the last pivot on its diagonal: that is the common denominator.
    """
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
    x = [0] * ncols
    for i, c in enumerate(pivots):
        x[c] = m[i][ncols]
    return x, prev


def series_window(order_bound: int, terms: int | None = None) -> int:
    """The index of the last coefficient a series computes.

    An explicit terms is returned unchanged.  The default is 2d - 1 for
    d = order_bound, the most a certificate needs.  Either way the index
    must lie in 0..limits.MAX_TERMS.
    """
    if terms is None:
        return check_terms(max(2 * order_bound - 1, 0), order_bound)
    if terms < 0:
        raise InputError(f"terms must be at least 0, got {terms}")
    return check_terms(terms)


def min_recurrence(prefix: SeriesPrefix, max_order: int) -> Recurrence | None:
    """Minimal-order recurrence fitted on the first half of the prefix.

    One fraction-free Gauss-Jordan solve of the Hankel system per order
    (see _solve_integer_system), never Berlekamp-Massey: the slow,
    independent oracle that the tests and the verify suite hold
    continue_series against.

    A recurrence does not change when its sequence is scaled, so the
    prefix is scaled to integers once, and every order's system is built
    from and solved on those integers; the taps come out over one common
    denominator.  The candidate is solved from coefficients
    c_0..c_{ceil(L/2)-1} and must then predict every remaining supplied
    coefficient exactly, a check over the same integers; otherwise the
    next order is tried.  Only the recurrence returned is made of
    Fractions.  Returns None when no recurrence of order <= max_order
    verifies.
    """
    n = len(prefix)
    if n < 2 * max_order + 2:
        raise InputError(
            f"prefix of length {n} is too short for max_order {max_order}; "
            f"need at least {2 * max_order + 2} coefficients"
        )
    coeffs, _ = clear_denominators(prefix.coefficients)
    fit_len = (n + 1) // 2
    for order in range(max_order + 1):
        solved = _solve_integer_system(
            [coeffs[k - order:k][::-1] + [coeffs[k]] for k in range(order, fit_len)], order)
        if solved is None:
            continue
        taps, scale = solved
        if _recurrence_holds(coeffs, taps, scale):
            return Recurrence(tuple(Fraction(t, scale) for t in taps))
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

    ``continuation`` is a construction's FactoredForm or a fit's
    RationalFunction; ``closed_form`` reads either as a RationalFunction.
    ``order_bound`` is the bound d its construction proves on the
    series' order: a prefix of at least L + d coefficients, for the
    continuation's order L, certifies the continuation.  It is None for a
    fit with no bound, accepted by the 2L + 2 length contract.
    ``recurrence`` is set for fits only.
    """

    prefix: SeriesPrefix
    continuation: RationalFunction | FactoredForm
    recurrence: Recurrence | None = None
    order_bound: int | None = None

    @functools.cached_property
    def closed_form(self) -> RationalFunction:
        form = self.continuation
        return form if isinstance(form, RationalFunction) else form.rational_function()


@dataclass(frozen=True)
class Regularized:
    """A construction's series, its value at t=1 and the evidence for it.

    Only ``regularize`` builds one.  ``routes`` (route label -> value)
    all equal ``value``; each construction lists its independent formula
    last.  ``counts`` are the graded counts the coefficients were built
    from (support, breakpoint or pair counts), one per prefix
    coefficient; they are empty where the coefficients are the counts
    themselves.
    """

    series: EulerSeries
    value: Fraction
    routes: dict[str, Fraction]
    counts: tuple[int, ...]

    @property
    def expected(self) -> Fraction:
        """The value of the independent formula, the last route."""
        return next(reversed(self.routes.values()))


@dataclass(frozen=True)
class Construction:
    """A series construction, declared for ``regularize`` to run.

    ``closed_form`` builds the continuation, of order <= ``order_bound``.
    The coefficient c_k is binom(weight, k) * count(k), or count(k) with
    weight None, when the record keeps no counts.  ``routes``, called
    after the closed form, gives the other routes, the formula last.
    """

    order_bound: int
    closed_form: Callable[[], FactoredForm]
    count: Callable[[int], int]
    weight: int | None
    routes: Callable[[], dict[str, Fraction]]
    grading: str = "rank"


def regularize(construction: Construction, terms: int | None = None) -> Regularized:
    """Run a construction: the window, the closed form, the counts
    certified against it, the routes, then the value at t=1, which every
    route must equal exactly.  The route ``series_regularization`` comes
    just before the independent formula.  By default the prefix is the
    certificate, L + d coefficients; a closed form of order L > d is a
    bug, refused before any count, so c_(L+d-1) lies inside the window
    2d - 1 checked first.
    """
    bound, weight = construction.order_bound, construction.weight
    last = series_window(bound, terms)
    closed = construction.closed_form()
    if closed.order > bound:
        raise InternalCheckError(
            f"closed form of order {closed.order} above the proven order bound {bound}"
        )
    if terms is None:
        last = max(closed.order + bound, 1) - 1
    counts = tuple(construction.count(k) for k in range(last + 1))
    coeffs = counts if weight is None else tuple(
        integer_binomial(weight, k) * n for k, n in enumerate(counts))
    if not closed.certifies(coeffs):
        raise InternalCheckError("counts disagree with the closed form")
    routes = construction.routes()
    label, formula = routes.popitem()
    value = closed.value_at_one()
    routes |= {"series_regularization": value, label: formula}
    if any(route != value for route in routes.values()):
        named = ", ".join(f"{name} gives {route}" for name, route in routes.items())
        raise InternalCheckError(f"route disagreement: {named}")
    series = EulerSeries(SeriesPrefix(coeffs, construction.grading), closed, order_bound=bound)
    return Regularized(series, value, routes, () if weight is None else counts)


def continue_series(prefix: SeriesPrefix, order_bound: int | None = None) -> EulerSeries:
    """Berlekamp-Massey over the rationals on the prefix c_0, c_1, ...

    After each coefficient, ``length`` is the order of the shortest
    recurrence generating every coefficient seen so far; it never
    decreases.  With the order bound d that the counts' construction
    proves, the fit stops at the first n coefficients with
    n >= length + d, which certify it, and keeps those n as its prefix.
    A length above d means the counts contradict their bound: a library
    bug, not a knob to raise.  (Only a nonzero c_0 against a bound of 0
    can get there: length jumps to k + 1 - length, which is at most d
    while no certificate has stopped the fit.)  An uncertified fit, and
    every fit without a bound, is accepted only when the prefix holds at
    least 2L + 2 coefficients.
    """
    coeffs = prefix.coefficients
    if order_bound is None and len(coeffs) < 2:
        raise InputError(f"terms must be at least 1 to fit a recurrence, got {len(coeffs) - 1}")
    conn = [Fraction(1)]  # connection polynomial: sum conn[i] c_{k-i} = 0
    prev, prev_disc, shift, length = [Fraction(1)], Fraction(1), 1, 0
    used, certified = len(coeffs), False
    for k in range(len(coeffs)):
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
        if order_bound is not None:
            if length > order_bound:
                raise InternalCheckError(
                    f"{k + 1} coefficients need a recurrence of order {length}, "
                    f"above the proven order bound {order_bound}"
                )
            if k + 1 >= length + order_bound:
                used, certified = k + 1, True
                break
    if not certified and used < 2 * length + 2:
        need = 2 * length + 2 if order_bound is None else min(length + order_bound, 2 * length + 2)
        raise RegularizationError(
            f"an order-{length} recurrence needs {need} coefficients to "
            f"verify, but terms allows {used}; raise terms"
        )
    taps = [-c for c in conn[1:]] + [Fraction(0)] * (length + 1 - len(conn))
    fitted = SeriesPrefix(coeffs[:used], prefix.grading)
    rec = Recurrence(tuple(taps))
    return EulerSeries(
        fitted, to_rational_function(fitted, rec), rec, order_bound if certified else None
    )


def binomial_closed_form(m: int, lam: int, constant: int = 1) -> FactoredForm:
    """constant * (1 + lam*t)^m: a polynomial for m >= 0, and
    constant / (1 + lam*t)^(-m) for m < 0."""
    if m >= 0:
        return FactoredForm(tuple(constant * c for c in _binomial_power(lam, m)))
    return FactoredForm((constant,), 1, ((lam, -m),))


def binomial_prefix(m, lam, terms: int, grading: str = "rank") -> SeriesPrefix:
    """Prefix c_0..c_terms of (1 + lam*t)^m for rational m and lam: the
    generalized binomials binom(m, k) * lam^k.

    For m = a/b and lam = p/q, c_(k+1) = c_k u_k / v_k with the integers
    u_k = (a - k b) p and v_k = b q (k + 1): one exact multiplication per
    coefficient, whose gcds run against the small u_k and v_k only.
    """
    if terms < 0:
        raise InputError(f"terms must be at least 0, got {terms}")
    check_terms(terms)
    m, lam = as_fraction(m), as_fraction(lam)
    a, b, p, q = m.numerator, m.denominator, lam.numerator, lam.denominator
    coeffs = [Fraction(1)]
    for k in range(terms):
        coeffs.append(coeffs[-1] * Fraction((a - k * b) * p, b * q * (k + 1)))
    return SeriesPrefix(tuple(coeffs), grading)
