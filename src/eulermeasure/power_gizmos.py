"""Power sets of 1-D sets and iterated subset-selection gizmos.

The small power set 2^A (all finite subsets of A) is graded by subset
size; its Euler series is the binomial expansion of (1+t)^chi(A) and
its regularized value is 2^chi(A).  A gizmo iterates "choose k_i" on
top of 2^A, using the symmetric-difference order on subsets and the
lexicographic order on tuples; elements are graded by the size of their
support (the union of all underlying subsets).

The number n_k of gizmo elements over any fixed k-element support
depends only on k, and is a fixed rational combination
n_k = sum_j a_j (2^j - 1)^k of the pure exponentials for j = 1..J,
J = prod(k_i).  The weights a_j are the coefficients of the iterated
binomial polynomial P(x) = binom(..binom(x, k_1).., k_r) = sum_j a_j x^j:
P(2^g) counts the gizmo elements over a g-point ground set, and n_k is
the Mobius inversion of those totals over sub-supports.  gizmo_measure
reads the weights off P, built over the integers with one scale, and
fits nothing; its support counts are that Mobius inversion of
math.comb totals, and its certificate holds the whole prefix against
the closed form built from the weights.  gizmo_fit, the oracle, solves
the weights from a Vandermonde system on the counts, verifies them on
held-out counts and holds them against P; the verify check
power_gizmos.fit_is_the_polynomial runs it.
Two routes produce the regularized measure from them:

* exponential fit: the weights' polynomial sum_j a_j x^j evaluated
  directly at 2^chi(A), over the integers;
* series regularization: the closed form sum_j a_j (1 + (2^j - 1)t)^chi(A),
  whose t^k coefficient is binom(chi(A), k) * n_k.

Both routes must agree with the iterated binomial coefficient of
2^chi(A).  Both constructions are exact_series.Construction declarations.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalCheckError
from .exact_series import (
    Construction,
    FactoredForm,
    Polynomial,
    Regularized,
    binomial_closed_form,
    clear_denominators,
    convolve,
    regularize,
    times_factors,
)
from .interval_sets import PolyhedralSet1D
from .limits import check_enumeration, check_gizmo_size
from .partition_combinatorics import integer_binomial, iterated_binomial
from .rationals import as_integer

# gizmo_fit checks its weights on this many support counts past the J it solves on.
HELD_OUT = 4


@dataclass(frozen=True)
class GizmoSpec:
    """Selection sizes k_1..k_r of an iterated-choice gizmo over 2^A."""

    ks: tuple[int, ...]

    def __post_init__(self):
        ks = tuple(as_integer(k, "--ks sizes must be integers") for k in self.ks)
        if not ks:
            raise InputError("a gizmo needs at least one selection size (--ks)")
        for k in ks:
            if k < 1:
                raise InputError(f"--ks sizes must be at least 1, got {k}")
        object.__setattr__(self, "ks", ks)

    @property
    def fit_dimension(self) -> int:
        """J = prod(k_i), the number of exponential bases in the fit."""
        return math.prod(self.ks)


@dataclass(frozen=True)
class ExponentialFit:
    """Weights a_j = W_j / D with n_k = sum_j a_j (2^j - 1)^k for all k.

    The integers W_1..W_J are kept over their common denominator D, in
    lowest terms; the bases and the Fraction views are built when read.
    The companion polynomial sum a_j x^j is the iterated binomial
    coefficient of x for the same selection sizes: gizmo_measure reads
    the weights off it, and gizmo_fit solves them and holds them against it.
    """

    integer_weights: tuple[int, ...]
    scale: int

    @property
    def bases(self) -> tuple[int, ...]:
        return tuple(2 ** j - 1 for j in range(1, len(self.integer_weights) + 1))

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(w, self.scale) for w in self.integer_weights)

    @property
    def polynomial(self) -> Polynomial:
        return Polynomial((Fraction(0),) + self.weights)


def _iterated_total(spec: GizmoSpec, ground_size: int) -> int:
    """Number of gizmo elements over a finite ground set of the given size."""
    total = 2 ** ground_size
    for k in spec.ks:
        total = math.comb(total, k)
    return total


def gizmo_support_count(spec: GizmoSpec, k: int, totals: list[int] | None = None) -> int:
    """n_k by Mobius inversion over sub-supports.

    Elements with support inside a fixed j-subset are exactly the gizmo
    elements over that j-point ground set, so
    n_k = sum_j (-1)^(k-j) binom(k,j) * total(j).  The binomials are
    kept running, binom(k, j+1) = binom(k, j) * (k - j) / (j + 1), an
    exact division.  ``totals`` memoizes total(0), total(1), .. for one
    spec across calls.
    """
    if k < 0:
        raise InputError(f"support size must be at least 0, got {k}")
    totals = [] if totals is None else totals
    while len(totals) <= k:
        totals.append(_iterated_total(spec, len(totals)))
    count, binom = 0, 1
    for j in range(k + 1):
        count += -binom * totals[j] if (k - j) % 2 else binom * totals[j]
        binom = binom * (k - j) // (j + 1)
    return count


def support_count_table(spec: GizmoSpec, last: int) -> tuple[int, ...]:
    totals: list[int] = []
    return tuple(gizmo_support_count(spec, k, totals) for k in range(last + 1))


def gizmo_support_census(spec: GizmoSpec, ground_size: int) -> dict[frozenset, int]:
    """Exhaustive construction over {1..ground_size}: counts by exact support.

    Subsets are ordered by "S < T iff min(S symdiff T) lies in S", which
    is the lexicographic order on indicator strings with present < absent.
    Each selection level forms strictly increasing tuples of the previous
    level's elements; since those are kept in sorted order, the tuples
    are plain index combinations and inherit the lexicographic order.

    Nothing is built before the candidates are counted: the 2^ground_size
    subsets and binom(previous level, k_i) tuples per level, each with a
    support of up to ground_size elements.  The count is checked against
    the enumeration ceiling level by level, so a deep spec is refused
    before its levels grow large.

    The levels run on int bitmasks, element g at bit ground_size - g, so
    the order above is descending mask order and a tuple's support is the
    OR of its members' masks.  A level keeps the one int object of each
    mask, not a copy; the last level is counted as it is built, never
    kept.  Only the census returned has frozenset keys, in the order each
    support first occurs.
    """
    what = (f"the gizmo census of --ks {','.join(map(str, spec.ks))} over {ground_size} "
            "points (gizmo_support_count counts it)")
    candidates = level = 2 ** ground_size
    for k_i in spec.ks:
        check_enumeration(candidates * ground_size, what)
        level = math.comb(level, k_i)
        candidates += level
    check_enumeration(candidates * ground_size, what)
    full = 2 ** ground_size - 1
    subsets = supports = list(range(full, -1, -1))  # subsets[full - mask] is mask
    *inner, last = spec.ks
    for k_i in inner:
        supports = [subsets[full - functools.reduce(operator.or_, combo)]
                    for combo in itertools.combinations(supports, k_i)]
    census = Counter(functools.reduce(operator.or_, combo)
                     for combo in itertools.combinations(supports, last))
    bits = [(g, 1 << (ground_size - g)) for g in range(1, ground_size + 1)]
    return {frozenset(g for g, bit in bits if mask & bit): count
            for mask, count in census.items()}


def gizmo_brute_force(spec: GizmoSpec, k: int) -> int:
    """n_k by exhaustive construction over the ground set {1..k}."""
    census = gizmo_support_census(spec, k)
    return census.get(frozenset(range(1, k + 1)), 0)


def _polynomial_weights(ks) -> ExponentialFit:
    """The weights a_j of x -> iterated_binomial(x, ks) = sum_j a_j x^j.

    The polynomial is built as integer coefficients P over one scale s:
    binom(P/s, k) is prod_{i<k} (P - i*s) over s^k * k!, so only the last
    step divides, and that once, to lowest terms.  P_0 = 0, since
    binom(0, k) = 0 for k >= 1.
    """
    poly, scale = [0, 1], 1
    for k in ks:
        product = [1]
        for i in range(k):
            product = convolve(product, [poly[0] - i * scale] + poly[1:])
        poly, scale = product, scale ** k * math.factorial(k)
    common = math.gcd(scale, *poly)
    return ExponentialFit(tuple(c // common for c in poly[1:]), scale // common)


def iterated_binomial_polynomial(ks) -> Polynomial:
    """The polynomial x -> iterated_binomial(x, ks)."""
    return _polynomial_weights(ks).polynomial


def _exponential_weights(bases: tuple[int, ...], counts: list[int]) -> list[Fraction]:
    """The a_j with sum_j a_j b_j^k = counts[k - 1] for k = 1..J, in O(J^2).

    With w_j = a_j b_j this is the transposed Vandermonde system
    sum_j w_j b_j^m = counts[m], m < J.  For the master polynomial
    P = prod (x - b_i) and Q_j = P / (x - b_j) = sum_m q_jm x^m,
    sum_m q_jm counts[m] = sum_i w_i Q_j(b_i) = w_j Q_j(b_j), because Q_j
    vanishes on every other node.  Everything but the last division is
    integer arithmetic.
    """
    master = [1]
    for b in bases:  # times (x - b)
        master = [0] + master
        for i in range(len(master) - 1):
            master[i] -= b * master[i + 1]
    weights = []
    for b in bases:
        quotient = [0] * len(bases)  # synthetic division of P by x - b
        acc = 0
        for i in range(len(bases), 0, -1):
            acc = master[i] + b * acc
            quotient[i - 1] = acc
        at_node = math.prod(b - c for c in bases if c != b)
        weights.append(Fraction(sum(map(operator.mul, quotient, counts)), b * at_node))
    return weights


def gizmo_fit(spec: GizmoSpec) -> ExponentialFit:
    """Solve n_k = sum a_j (2^j-1)^k on k = 1..J and verify the result:
    the oracle of the weights gizmo_measure reads off the polynomial.

    The system is solved by Lagrange interpolation in O(J^2) integer
    operations (see _exponential_weights); the weights must then predict
    the HELD_OUT counts after those and match the iterated binomial
    polynomial.  The held-out check runs over the integers:
    sum W_j b_j^k = D * n_k for the weights W_j over their common
    denominator D.
    Verification failure here means a counting bug, not bad user input.
    """
    j_dim = spec.fit_dimension
    bases = tuple(2 ** j - 1 for j in range(1, j_dim + 1))
    totals: list[int] = []
    targets = [gizmo_support_count(spec, k, totals) for k in range(1, j_dim + HELD_OUT + 1)]
    scaled, scale = clear_denominators(_exponential_weights(bases, targets[:j_dim]))
    powers = [b ** j_dim for b in bases]
    for k in range(j_dim + 1, j_dim + HELD_OUT + 1):
        powers = list(map(operator.mul, powers, bases))
        if sum(map(operator.mul, scaled, powers)) != scale * targets[k - 1]:
            raise InternalCheckError(
                f"exponential fit fails on held-out support count n_{k}"
            )
    fit = ExponentialFit(tuple(scaled), scale)
    if fit != _polynomial_weights(spec.ks):
        raise InternalCheckError(
            "fit weights disagree with the iterated binomial polynomial"
        )
    return fit


def _order_bound(chi: int, j_dim: int) -> int:
    """chi >= 0 makes the series a polynomial of degree <= chi; chi < 0
    stacks |chi| poles on each of the J exponential bases."""
    return chi + 1 if chi >= 0 else -chi * j_dim


def powerset_series(A: PolyhedralSet1D, terms: int | None = None) -> Regularized:
    """Euler series of 2^A: binom(chi,k) t^k, closed form (1+t)^chi.

    The coefficients are the counts, so the record keeps none.  The
    value is 2^chi(A), the last route; 1 + t is 2 at t=1, never a pole.
    """
    chi = A.euler_measure()
    return regularize(Construction(
        order_bound=_order_bound(chi, 1), closed_form=lambda: binomial_closed_form(chi, 1),
        count=lambda k: integer_binomial(chi, k), weight=None,
        routes=lambda: {"power_of_two": Fraction(2) ** chi},
    ), terms)


@dataclass(frozen=True)
class GizmoMeasureResult(Regularized):
    """The gizmo's record, with the exponential weights behind its first
    route; counts are the support counts n_k of a fixed k-set."""

    fit: ExponentialFit

    route_exponential = property(lambda self: self.routes["exponential_fit"])
    route_series = property(lambda self: self.routes["series_regularization"])


def _exponential_value(fit: ExponentialFit, chi: int) -> Fraction:
    """The weights' polynomial sum_j a_j x^j at x = 2^chi over the integers:
    sum_j W_j 2^(chi j) / D, and for chi < 0 both sides times 2^(-chi J)."""
    weights, scale = fit.integer_weights, fit.scale
    if chi >= 0:
        return Fraction(sum(w << chi * j for j, w in enumerate(weights, 1)), scale)
    j_dim = len(weights)
    return Fraction(sum(w << -chi * (j_dim - j) for j, w in enumerate(weights, 1)),
                    scale << -chi * j_dim)


def _closed_form(fit: ExponentialFit, chi: int) -> FactoredForm:
    """sum_j a_j (1 + b_j t)^chi over the weights a_j = W_j / D and bases b_j.

    Its t^k coefficient is binom(chi, k) sum_j a_j b_j^k = binom(chi, k) n_k.
    It is built over the integers.  For chi < 0 it is
    sum_j W_j prod_{i != j} (1 + b_i t)^-chi over
    D prod_j (1 + b_j t)^-chi, with zero weights left out, and the
    numerator is built by linear passes: the bases are distinct, so it is
    nonzero at every pole -1/b_j and the form is reduced.
    """
    terms = [(w, b) for w, b in zip(fit.integer_weights, fit.bases) if w]
    if chi >= 0:
        return FactoredForm(tuple(math.comb(chi, k) * sum(w * b ** k for w, b in terms)
                                  for k in range(chi + 1)), fit.scale)
    num, den, pad = [0], [1], [0] * -chi
    for w, b in terms:  # num / den += w / (1 + b t)^-chi
        num = [x + w * y for x, y in zip(times_factors(num + pad, ((b, -chi),)), den + pad)]
        den = times_factors(den + pad, ((b, -chi),))
    return FactoredForm(tuple(num), fit.scale, tuple((b, -chi) for _, b in terms))


def gizmo_measure(
    A: PolyhedralSet1D, spec: GizmoSpec, terms: int | None = None
) -> GizmoMeasureResult:
    """Regularized Euler measure of G(2^A; k_1..k_r), by three routes.

    The closed form comes from the weights read off the iterated binomial
    polynomial; its builder checks the size ceiling first, so after the
    window.  The support counts are computed apart from that polynomial,
    by Mobius inversion of math.comb totals, and the whole prefix is
    certified against the closed form before the routes are compared.
    No fit runs: gizmo_fit is the weights' oracle.
    """
    chi = A.euler_measure()
    totals: list[int] = []
    fit = None

    def closed_form() -> FactoredForm:
        nonlocal fit
        check_gizmo_size(chi, spec.ks)
        fit = _polynomial_weights(spec.ks)
        return _closed_form(fit, chi)

    record = regularize(Construction(
        order_bound=_order_bound(chi, spec.fit_dimension), closed_form=closed_form,
        count=lambda k: gizmo_support_count(spec, k, totals), weight=chi,
        routes=lambda: {"exponential_fit": _exponential_value(fit, chi),
                        "iterated_binomial": iterated_binomial(Fraction(2) ** chi, spec.ks)},
    ), terms)
    return GizmoMeasureResult(**vars(record), fit=fit)
