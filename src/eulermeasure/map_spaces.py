"""Map spaces out of 1-D domains, graded by breakpoint count.

A piecewise-affine map from an open interval into a finite set is
constant between its breakpoints, so a map with breakpoints
x_1 < ... < x_k is the value sequence (v_0, u_1, v_1, .., u_k, v_k):
the value on each open stretch and at each breakpoint.  The only
constraint is that at each x_i the pair (u_i, v_i) must not both equal
the previous stretch value v_{i-1}, which leaves b^2 - 1 choices, hence
b * (b^2-1)^k maps over any fixed k-point breakpoint set.

For a codomain B that is a compact 1-D set rather than finite, the set
of affine maps from an open interval into B has Euler measure chi(B)
(each closed-interval component contributes a closed square of measure
1, each point component a point), and the same breakpoint grading gives
chi(B) * (chi(B)^2 - 1)^k exact-breakpoint measures.  Either way the
series continues to base/(1 + (base^2-1) t) and regularizes to 1/base,
or to 0 when the base is 0.  Each construction returns an
exact_series.Regularized record whose counts are the exact-breakpoint
(or, for pairs, union-breakpoint) counts.

Every count here is a closed form; brute_map_count and map_pair_count
enumerate value sequences, as bounded test oracles only.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import InputError, InternalCheckError, ResourceLimitError, UnsupportedDomainError
from .exact_series import Regularized, binomial_closed_form, closed_series, fit_series
from .choose_construction import CellSketch
from .interval_sets import Point, PolyhedralSet1D
from .limits import DEFAULT_ENUM_CAP
from .partition_combinatorics import gen_binomial, integer_binomial

GRADING = "breakpoints"
# The pair counts are a difference of two geometric sequences (see
# finite_pair_count), so the pair series has order at most 2.
PAIR_ORDER_BOUND = 2


def finite_map_count(bsize: int, k: int) -> int:
    """Maps from one open interval to a bsize-point set with k given
    breakpoints: bsize * (bsize^2 - 1)^k."""
    _check_map_count_args(bsize, k)
    return bsize * (bsize ** 2 - 1) ** k


def finite_pair_count(bsize: int, k: int) -> int:
    """Unordered pairs {f, g}, f != g, of maps from one open interval to a
    bsize-point set whose breakpoint sets unite to a fixed k-set:
    (b^2 (b^4 - 1)^k - b (b^2 - 1)^k) / 2.

    An ordered pair (f, g) is one map into the b^2 value pairs, and it
    breaks where f or g does: at each breakpoint one of the b^4 choices
    of (value pair at it, value pair after) breaks neither map.  So
    finite_map_count(b^2, k) ordered pairs unite to the k-set, and
    finite_map_count(b, k) of them have f = g.
    """
    return (finite_map_count(bsize ** 2, k) - finite_map_count(bsize, k)) // 2


def brute_map_count(bsize: int, k: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """finite_map_count by enumeration, its test oracle: every value
    sequence whose every nominal breakpoint is a real one (the full-mask
    bucket of _breakpoint_mask_counts)."""
    _check_map_count_args(bsize, k)
    return _breakpoint_mask_counts(bsize, k, cap)[(1 << k) - 1]


def _check_map_count_args(bsize: int, k: int) -> None:
    if bsize < 1:
        raise InputError("codomain size must be positive")
    if k < 0:
        raise InputError(f"breakpoint count must be at least 0, got {k}")


def hedral_map_measure(
    A: PolyhedralSet1D, bsize: int, terms: int | None = None
) -> Regularized:
    """Regularized measure bsize^chi(A) of the finite-range map space.

    The domain must be a union of open intervals: breakpoints inside a
    point piece make no sense, and the value-sequence count would stop
    being independent of where the breakpoints sit.  Over p components
    the counts are n_k = bsize^p (bsize^2 - 1)^k, and the series
    sum binom(-p, k) n_k t^k is held against its closed form
    bsize^p / (1 + (bsize^2 - 1) t)^p of order p.
    """
    if bsize < 1:
        raise InputError("codomain size must be positive")
    if any(isinstance(p, Point) for p in A.pieces):
        raise UnsupportedDomainError(
            "map-space domain must have no point pieces (isolated or endpoint "
            "points are not supported)"
        )
    p = len(A.pieces)
    counts: list[int] = []

    def coefficient(k: int) -> int:
        counts.append(bsize ** p * (bsize ** 2 - 1) ** k)
        return integer_binomial(-p, k) * counts[k]

    closed = binomial_closed_form(-p, bsize ** 2 - 1, bsize ** p)
    series = closed_series(coefficient, closed, p, terms, GRADING)
    routes = {
        "series_regularization": series.regularized_value(),
        "codomain_power": Fraction(bsize) ** -p,
    }
    return Regularized.of(series, routes, counts)


def _breakpoint_mask_counts(bsize: int, k: int, cap: int) -> list[int]:
    """Number of value sequences per exact breakpoint mask (bit i = x_{i+1})."""
    total = bsize ** (2 * k + 1)
    if total > cap:
        raise ResourceLimitError(
            f"brute enumeration of {total} maps exceeds cap {cap}"
        )
    counts = [0] * (1 << k)
    for seq in itertools.product(range(bsize), repeat=2 * k + 1):
        mask = 0
        for i in range(k):
            prev, at_bp, after = seq[2 * i], seq[2 * i + 1], seq[2 * i + 2]
            if not (at_bp == prev and after == prev):
                mask |= 1 << i
        counts[mask] += 1
    return counts


def map_pair_count(bsize: int, k: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """finite_pair_count by enumeration, its test oracle.

    Every map over the k nominal breakpoints is enumerated and bucketed
    by its exact breakpoint set; pairs are then combined exactly, so the
    result is an exhaustive count, not a closed-form shortcut.
    """
    _check_map_count_args(bsize, k)
    counts = _breakpoint_mask_counts(bsize, k, cap)
    full = (1 << k) - 1
    ordered = 0
    for m1, c1 in enumerate(counts):
        if not c1:
            continue
        for m2, c2 in enumerate(counts):
            if c2 and (m1 | m2) == full:
                ordered += c1 * c2
    distinct_ordered = ordered - counts[full]
    if distinct_ordered % 2:
        raise InternalCheckError("odd count of ordered distinct map pairs")
    return distinct_ordered // 2


def map_pair_measure(bsize: int, terms: int | None = None) -> Regularized:
    """Series and value for unordered distinct pairs of maps from (0,1).

    The pair rank is the size of the union of the two breakpoint sets;
    the counts are finite_pair_count's, the series coefficient is
    (-1)^k times the count, and the value is the continuation at t=1.
    The continuation is a certified fit, not the closed form written
    out: with order bound 2 it reads k = 0..3 by default.  The value
    must equal binom(1/bsize, 2), the pairs of the map space of
    measure 1/bsize.
    """
    counts: list[int] = []

    def coefficient(k: int) -> int:
        counts.append(finite_pair_count(bsize, k))
        return (-1) ** k * counts[k]

    series = fit_series(coefficient, PAIR_ORDER_BOUND, terms, GRADING)
    routes = {
        "series_regularization": series.regularized_value(),
        "generalized_binomial": gen_binomial(Fraction(1, bsize), 2),
    }
    return Regularized.of(series, routes, counts, PAIR_ORDER_BOUND)


def affine_pair_space(B: PolyhedralSet1D) -> CellSketch:
    """Endpoint-pair region of the affine maps from an open interval into B.

    An affine map is fixed by its two endpoint limits (w, w'); the
    segment between them must stay inside B, which for compact B means
    both ends lie in one component.  Each closed-interval component
    contributes a closed square (one 2-cell, four 1-cells, four
    0-cells, measure 1) and each point component a single 0-cell, so the
    sketch's measure is the number of components, which is chi(B).
    """
    cls = B.classify()
    if not cls.compact:
        raise UnsupportedDomainError("affine map space needs a compact codomain")
    cells = sorted(
        (d, (index, d))
        for index, comp in enumerate(cls.components)
        for d in ((0,) if comp.is_point else (2, 1, 1, 1, 1, 0, 0, 0, 0))
    )
    sketch = CellSketch(tuple(d for d, _ in cells), tuple(origin for _, origin in cells))
    if sketch.measure != B.euler_measure():
        raise InternalCheckError("affine pair region measure differs from chi(B)")
    return sketch


def schanuel_measure(
    codomain: PolyhedralSet1D | int, terms: int | None = None
) -> Regularized:
    """Regularized measure of the full map space from (0,1) into B.

    Maps whose breakpoints lie inside a fixed k-set have measure
    chi(B)^(2k+1) (one chi(B) per breakpoint value and per stretch);
    Mobius inversion over the subset lattice gives the exact-breakpoint
    counts n_k = sum_j (-1)^(k-j) binom(k,j) chi(B)^(2j+1), which must
    expand chi(B)/(1+(chi(B)^2-1)t).  The value is 0 when chi(B) = 0
    and 1/chi(B) otherwise.

    A concrete codomain must be compact; its measure is taken from the
    affine endpoint-pair region rather than assumed.
    """
    if isinstance(codomain, PolyhedralSet1D):
        chi_b = affine_pair_space(codomain).measure
    else:
        chi_b = int(codomain)
    inside: list[int] = []  # chi(B)^(2j+1): maps with breakpoints inside a fixed j-set
    counts: list[int] = []

    def coefficient(k: int) -> int:
        inside.append(chi_b ** (2 * k + 1))
        counts.append(sum((-1) ** (k - j) * math.comb(k, j) * inside[j] for j in range(k + 1)))
        return (-1) ** k * counts[k]

    closed = binomial_closed_form(-1, chi_b ** 2 - 1, chi_b)
    series = closed_series(coefficient, closed, 1, terms, GRADING)
    # chi(B) = 0 makes every coefficient vanish, so the closed form is
    # literally 0 and evaluation at t=1 never sees the nominal pole.
    routes = {
        "series_regularization": series.regularized_value(),
        "reciprocal_codomain_measure": Fraction(0) if chi_b == 0 else Fraction(1, chi_b),
    }
    return Regularized.of(series, routes, counts)
