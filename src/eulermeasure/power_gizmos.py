"""Power sets of 1-D sets and iterated subset-selection gizmos.

The small power set 2^A (all finite subsets of A) is graded by subset
size; its Euler series is the binomial expansion of (1+t)^chi(A) and
its regularized value is 2^chi(A).  A gizmo iterates "choose k_i" on
top of 2^A, using the symmetric-difference order on subsets and the
lexicographic order on tuples; elements are graded by the size of their
support (the union of all underlying subsets).

The number n_k of gizmo elements over any fixed k-element support
depends only on k.  Two independent routes produce the regularized
measure:

* exponential fit: n_k is a fixed rational combination of the pure
  exponentials (2^j - 1)^k for j = 1..J, J = prod(k_i); the combination
  is solved from a Vandermonde system, verified on held-out counts, and
  evaluated directly at 2^chi(A);
* series regularization: the prefix binom(chi(A), k) * n_k is fitted to
  a linear recurrence and its rational continuation evaluated at t=1.

Both routes must agree with the iterated binomial coefficient of
2^chi(A), which exact_series.regularize checks on every call.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalCheckError, ResourceLimitError
from .exact_series import (
    EulerSeries,
    Polynomial,
    binomial_prefix,
    fit_series,
    regularize,
    series_window,
)
from .interval_sets import PolyhedralSet1D
from .limits import enumeration_cap
from .partition_combinatorics import integer_binomial, iterated_binomial
from .rationals import as_fraction

GRADING = "rank"


@dataclass(frozen=True)
class GizmoSpec:
    """Selection sizes k_1..k_r of an iterated-choice gizmo over 2^A."""

    ks: tuple[int, ...]

    def __post_init__(self):
        ks = tuple(int(k) for k in self.ks)
        if not ks:
            raise InputError("a gizmo needs at least one selection size (--ks)")
        if any(k < 1 for k in ks):
            raise InputError("gizmo selection sizes must all be >= 1")
        object.__setattr__(self, "ks", ks)

    @property
    def fit_dimension(self) -> int:
        """J = prod(k_i), the number of exponential bases in the fit."""
        return math.prod(self.ks)


@dataclass(frozen=True)
class ExponentialFit:
    """Weights a_j with n_k = sum a_j (2^j - 1)^k for all k.

    The companion polynomial sum a_j x^j equals the iterated binomial
    coefficient of x for the same selection sizes; that identity is
    verified at construction time by gizmo_fit.
    """

    bases: tuple[int, ...]
    weights: tuple[Fraction, ...]
    polynomial: Polynomial

    def predicted_count(self, k: int) -> Fraction:
        return sum(
            (w * Fraction(b) ** k for w, b in zip(self.weights, self.bases)),
            Fraction(0),
        )

    def value_at(self, x) -> Fraction:
        return self.polynomial.evaluate(as_fraction(x))


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
    n_k = sum_j (-1)^(k-j) binom(k,j) * total(j).  ``totals`` memoizes
    total(0), total(1), .. for one spec across calls.
    """
    if k < 0:
        raise InputError(f"support size must be at least 0, got {k}")
    totals = [] if totals is None else totals
    while len(totals) <= k:
        totals.append(_iterated_total(spec, len(totals)))
    return sum((-1) ** (k - j) * math.comb(k, j) * totals[j] for j in range(k + 1))


def support_count_table(spec: GizmoSpec, last: int) -> tuple[int, ...]:
    totals: list[int] = []
    return tuple(gizmo_support_count(spec, k, totals) for k in range(last + 1))


def gizmo_support_census(
    spec: GizmoSpec, ground_size: int, cap: int | None = None
) -> dict[frozenset, int]:
    """Exhaustive construction over {1..ground_size}: counts by exact support.

    Subsets are ordered by "S < T iff min(S symdiff T) lies in S", which
    is the lexicographic order on indicator strings with present < absent.
    Each selection level forms strictly increasing tuples of the previous
    level's elements; since those are kept in sorted order, the tuples
    are plain index combinations and inherit the lexicographic order.
    """
    cap = enumeration_cap(cap)
    ground = tuple(range(1, ground_size + 1))
    subsets = [frozenset(c) for n in range(ground_size + 1)
               for c in itertools.combinations(ground, n)]
    subsets.sort(key=lambda s: tuple(0 if g in s else 1 for g in ground))
    supports: list[frozenset] = subsets
    candidates = len(supports)
    for k_i in spec.ks:
        candidates += math.comb(len(supports), k_i)
        if candidates > cap:
            raise ResourceLimitError(
                f"gizmo enumeration needs more than {cap} candidate tuples; "
                "use gizmo_support_count instead"
            )
        supports = [
            frozenset().union(*(supports[i] for i in combo))
            for combo in itertools.combinations(range(len(supports)), k_i)
        ]
    return dict(Counter(supports))


def gizmo_brute_force(spec: GizmoSpec, k: int, cap: int | None = None) -> int:
    """n_k by exhaustive construction over the ground set {1..k}."""
    census = gizmo_support_census(spec, k, cap)
    return census.get(frozenset(range(1, k + 1)), 0)


def _binomial_of_polynomial(p: Polynomial, k: int) -> Polynomial:
    """binom(p(x), k) as a polynomial in x."""
    result = Polynomial.constant(1)
    for i in range(k):
        result = result * (p - Polynomial.constant(i))
    return result.scale(Fraction(1, math.factorial(k)))


def iterated_binomial_polynomial(ks) -> Polynomial:
    """The polynomial x -> iterated_binomial(x, ks)."""
    p = Polynomial.variable()
    for k in ks:
        p = _binomial_of_polynomial(p, k)
    return p


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


def gizmo_fit(
    spec: GizmoSpec, held_out: int = 4, totals: list[int] | None = None
) -> ExponentialFit:
    """Solve n_k = sum a_j (2^j-1)^k on k = 1..J and verify the result.

    The system is solved by Lagrange interpolation in O(J^2) integer
    operations (see _exponential_weights); the weights must then predict
    the held-out counts and match the iterated binomial polynomial.
    Verification failure here means a counting bug, not bad user input.
    ``totals`` is the memo of gizmo_support_count.
    """
    j_dim = spec.fit_dimension
    bases = tuple(2 ** j - 1 for j in range(1, j_dim + 1))
    totals = [] if totals is None else totals
    targets = [gizmo_support_count(spec, k, totals) for k in range(1, j_dim + held_out + 1)]
    weights = _exponential_weights(bases, targets[:j_dim])
    fit = ExponentialFit(bases, tuple(weights), Polynomial((Fraction(0),) + tuple(weights)))
    for extra in range(held_out):
        k = j_dim + 1 + extra
        if fit.predicted_count(k) != targets[k - 1]:
            raise InternalCheckError(
                f"exponential fit fails on held-out support count n_{k}"
            )
    if fit.polynomial != iterated_binomial_polynomial(spec.ks):
        raise InternalCheckError(
            "fit weights disagree with the iterated binomial polynomial"
        )
    return fit


@dataclass(frozen=True)
class PowerSetResult:
    """Euler series and regularized measure of the small power set 2^A."""

    chi: int
    series: EulerSeries
    value: Fraction
    routes: dict[str, Fraction]


def _order_bound(chi: int, j_dim: int) -> int:
    """chi >= 0 makes the series a polynomial of degree <= chi; chi < 0
    stacks |chi| poles on each of the J exponential bases."""
    return chi + 1 if chi >= 0 else -chi * j_dim


def powerset_series(A: PolyhedralSet1D, terms: int | None = None) -> PowerSetResult:
    """Euler series of 2^A: binom(chi,k) t^k, closed form (1+t)^chi.

    The regularized value is 2^chi(A); the t=1 evaluation can never hit
    a pole because 1 + t is 2 there.  The closed form is known, so an
    explicit terms only sets how much of the prefix is shown.
    """
    chi = A.euler_measure()
    if terms is None:
        terms, _ = series_window(_order_bound(chi, 1))
    prefix, closed = binomial_prefix(chi, 1, terms, grading=GRADING)
    series = EulerSeries(prefix, closed)
    routes = {
        "series_regularization": series.regularized_value(),
        "power_of_two": Fraction(2) ** chi,
    }
    return PowerSetResult(chi, series, regularize(series, routes), routes)


@dataclass(frozen=True)
class GizmoMeasureResult:
    """Regularized gizmo measure with the evidence for both routes."""

    chi: int
    value: Fraction
    fit: ExponentialFit
    counts: tuple[int, ...]  # n_k: elements whose support is a fixed k-set
    series: EulerSeries
    routes: dict[str, Fraction]

    route_exponential = property(lambda self: self.routes["exponential_fit"])
    route_series = property(lambda self: self.routes["series_regularization"])


def gizmo_measure(
    A: PolyhedralSet1D,
    spec: GizmoSpec,
    terms: int | None = None,
    max_order: int | None = None,
) -> GizmoMeasureResult:
    """Regularized Euler measure of G(2^A; k_1..k_r), by both routes.

    The series fit stops at the certificate of the order bound from
    chi(A) and J = prod(k_i); terms only caps the support counts
    computed.  The routes must agree (see exact_series.regularize).
    """
    chi = A.euler_measure()
    two_chi = Fraction(2) ** chi
    order_bound = _order_bound(chi, spec.fit_dimension)
    terms, max_order = series_window(order_bound, terms, max_order)  # before any counting
    totals: list[int] = []
    fit = gizmo_fit(spec, totals=totals)
    counts: list[int] = []

    def coefficient(k: int) -> int:
        counts.append(gizmo_support_count(spec, k, totals))
        return integer_binomial(chi, k) * counts[k]

    series = fit_series(coefficient, order_bound, terms, max_order, GRADING)
    routes = {
        "exponential_fit": fit.value_at(two_chi),
        "series_regularization": series.regularized_value(),
        "iterated_binomial": iterated_binomial(two_chi, spec.ks),
    }
    value = regularize(series, routes, order_bound)
    # A modular fit left in doubt may have counted past the prefix's end.
    counts = counts[: len(series.prefix)]
    return GizmoMeasureResult(chi, value, fit, tuple(counts), series, routes)
