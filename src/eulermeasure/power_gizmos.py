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
2^chi(A), which exact_series.Regularized.of checks on every call.  Both
constructions return an exact_series.Regularized record.
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
    Polynomial,
    Regularized,
    binomial_closed_form,
    clear_denominators,
    closed_series,
    fit_series,
)
from .interval_sets import PolyhedralSet1D
from .limits import DEFAULT_ENUM_CAP, check_gizmo_size
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
    """Weights a_j with n_k = sum a_j (2^j - 1)^k for all k.

    The companion polynomial sum a_j x^j equals the iterated binomial
    coefficient of x for the same selection sizes; that identity is
    verified at construction time by gizmo_fit.
    """

    bases: tuple[int, ...]
    weights: tuple[Fraction, ...]
    polynomial: Polynomial

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
    spec: GizmoSpec, ground_size: int, cap: int = DEFAULT_ENUM_CAP
) -> dict[frozenset, int]:
    """Exhaustive construction over {1..ground_size}: counts by exact support.

    Subsets are ordered by "S < T iff min(S symdiff T) lies in S", which
    is the lexicographic order on indicator strings with present < absent.
    Each selection level forms strictly increasing tuples of the previous
    level's elements; since those are kept in sorted order, the tuples
    are plain index combinations and inherit the lexicographic order.
    """
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


def gizmo_brute_force(spec: GizmoSpec, k: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """n_k by exhaustive construction over the ground set {1..k}."""
    census = gizmo_support_census(spec, k, cap)
    return census.get(frozenset(range(1, k + 1)), 0)


def iterated_binomial_polynomial(ks) -> Polynomial:
    """The polynomial x -> iterated_binomial(x, ks).

    It is kept as integer coefficients P over one scale s: binom(P/s, k)
    is prod_{i<k} (P - i*s) over s^k * k!, so only the last step divides.
    """
    poly, scale = [0, 1], 1
    for k in ks:
        product = [1]
        for i in range(k):
            factor = [poly[0] - i * scale] + poly[1:]
            out = [0] * (len(product) + len(factor) - 1)
            for a_pos, a in enumerate(product):
                for b_pos, b in enumerate(factor):
                    out[a_pos + b_pos] += a * b
            product = out
        poly, scale = product, scale ** k * math.factorial(k)
    return Polynomial(tuple(Fraction(c, scale) for c in poly))


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
    the held-out counts and match the iterated binomial polynomial.  The
    held-out check runs over the integers: sum W_j b_j^k = D * n_k for the
    weights W_j over their common denominator D.
    Verification failure here means a counting bug, not bad user input.
    ``totals`` is the memo of gizmo_support_count.
    """
    j_dim = spec.fit_dimension
    bases = tuple(2 ** j - 1 for j in range(1, j_dim + 1))
    totals = [] if totals is None else totals
    targets = [gizmo_support_count(spec, k, totals) for k in range(1, j_dim + held_out + 1)]
    weights = _exponential_weights(bases, targets[:j_dim])
    scaled, scale = clear_denominators(weights)
    powers = [b ** j_dim for b in bases]
    for k in range(j_dim + 1, j_dim + held_out + 1):
        powers = list(map(operator.mul, powers, bases))
        if sum(map(operator.mul, scaled, powers)) != scale * targets[k - 1]:
            raise InternalCheckError(
                f"exponential fit fails on held-out support count n_{k}"
            )
    fit = ExponentialFit(bases, tuple(weights), Polynomial((Fraction(0),) + tuple(weights)))
    if fit.polynomial != iterated_binomial_polynomial(spec.ks):
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

    The regularized value is 2^chi(A); the t=1 evaluation can never hit
    a pole because 1 + t is 2 there.  The closed form is known, so an
    explicit terms only sets how much of the prefix is shown.  The
    coefficients are the counts, so the record's counts are empty.
    """
    chi = A.euler_measure()
    series = closed_series(
        lambda k: integer_binomial(chi, k), binomial_closed_form(chi, 1),
        _order_bound(chi, 1), terms, GRADING,
    )
    routes = {
        "series_regularization": series.regularized_value(),
        "power_of_two": Fraction(2) ** chi,
    }
    return Regularized.of(series, routes)


@dataclass(frozen=True)
class GizmoMeasureResult(Regularized):
    """The gizmo's record, with the exponential fit behind its first route;
    counts are the support counts n_k of a fixed k-set."""

    fit: ExponentialFit

    route_exponential = property(lambda self: self.routes["exponential_fit"])
    route_series = property(lambda self: self.routes["series_regularization"])


def gizmo_measure(
    A: PolyhedralSet1D, spec: GizmoSpec, terms: int | None = None
) -> GizmoMeasureResult:
    """Regularized Euler measure of G(2^A; k_1..k_r), by both routes.

    The series fit stops at the certificate of the order bound from
    chi(A) and J = prod(k_i); terms only caps the support counts
    computed.  The size ceiling and the window are checked before any
    counting.  The routes must agree (see exact_series.Regularized.of).
    """
    chi = A.euler_measure()
    two_chi = Fraction(2) ** chi
    order_bound = _order_bound(chi, spec.fit_dimension)
    totals: list[int] = []
    counts: list[int] = []

    def coefficient(k: int) -> int:
        if k == 0:  # fit_series has checked the window; no count is made yet
            check_gizmo_size(chi, spec.ks)
        counts.append(gizmo_support_count(spec, k, totals))
        return integer_binomial(chi, k) * counts[k]

    series = fit_series(coefficient, order_bound, terms, GRADING)
    fit = gizmo_fit(spec, totals=totals)
    routes = {
        "exponential_fit": fit.value_at(two_chi),
        "series_regularization": series.regularized_value(),
        "iterated_binomial": iterated_binomial(two_chi, spec.ks),
    }
    return GizmoMeasureResult.of(series, routes, counts, order_bound, fit=fit)
