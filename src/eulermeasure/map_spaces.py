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
or to 0 when the base is 0.  Unordered pairs of distinct maps, graded by
the union of their breakpoint sets, continue to the difference of two
such series, (1/2)(b^2/(1 + (b^4-1) t) - b/(1 + (b^2-1) t)), and
regularize to binom(1/b, 2).  Each construction is an
exact_series.Construction declaration, whose counts are the
exact-breakpoint (or, for pairs, union-breakpoint) counts.

Every count and every series here is a closed form; brute_map_count and
map_pair_count enumerate value sequences, as test oracles only, within
the enumeration ceiling of limits.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import InputError, InternalCheckError, UnsupportedDomainError
from .exact_series import Construction, FactoredForm, Regularized, binomial_closed_form, regularize
from .choose_construction import CellSketch
from .interval_sets import Point, PolyhedralSet1D
from .limits import check_enumeration
from .partition_combinatorics import gen_binomial
from .rationals import as_integer

GRADING = "breakpoints"
# The pair counts are a difference of two geometric sequences (see
# finite_pair_count), so the pair series has order at most 2.
PAIR_ORDER_BOUND = 2


def finite_map_count(bsize: int, k: int) -> int:
    """Maps from one open interval to a bsize-point set with k given
    breakpoints: bsize * (bsize^2 - 1)^k."""
    bsize, k = _map_count_args(bsize, k)
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
    bsize, k = _map_count_args(bsize, k)
    return (finite_map_count(bsize ** 2, k) - finite_map_count(bsize, k)) // 2


def brute_map_count(bsize: int, k: int) -> int:
    """finite_map_count by enumeration, its test oracle: every value
    sequence whose every nominal breakpoint is a real one (the full-mask
    bucket of _breakpoint_mask_counts)."""
    bsize, k = _map_count_args(bsize, k)
    return _breakpoint_mask_counts(bsize, k)[(1 << k) - 1]


def _codomain_size(bsize) -> int:
    """A finite codomain's size (--finite): a positive integer."""
    bsize = as_integer(bsize, "--finite must be an integer")
    if bsize < 1:
        raise InputError(f"--finite must be at least 1, got {bsize}")
    return bsize


def _map_count_args(bsize, k) -> tuple[int, int]:
    bsize = _codomain_size(bsize)
    k = as_integer(k, "breakpoint count must be an integer")
    if k < 0:
        raise InputError(f"breakpoint count must be at least 0, got {k}")
    return bsize, k


def hedral_map_measure(
    A: PolyhedralSet1D, bsize: int, terms: int | None = None
) -> Regularized:
    """Regularized measure bsize^chi(A) of the finite-range map space.

    The domain must be a union of open intervals: breakpoints inside a
    point piece make no sense, and the value-sequence count would stop
    being independent of where the breakpoints sit.  The order bound is
    the number p of intervals, or 1 for the constant series 1: on the
    empty domain, and for bsize = 1, where (bsize^2 - 1)^k = 0 for k >= 1.
    """
    bsize = _codomain_size(bsize)
    if any(isinstance(p, Point) for p in A.pieces):
        raise UnsupportedDomainError(
            "map-space domain must have no point pieces (isolated or endpoint "
            "points are not supported)"
        )
    p = len(A.pieces)
    return regularize(Construction(
        order_bound=max(p, 1) if bsize > 1 else 1,
        closed_form=lambda: binomial_closed_form(-p, bsize ** 2 - 1, bsize ** p),
        count=lambda k: bsize ** p * (bsize ** 2 - 1) ** k, weight=-p,
        routes=lambda: {"codomain_power": Fraction(bsize) ** -p}, grading=GRADING,
    ), terms)


def _breakpoint_mask_counts(bsize: int, k: int) -> list[int]:
    """Number of value sequences per exact breakpoint mask (bit i = x_{i+1}).

    The b^(2k+1) sequences of 2k + 1 values each, and the 2^k masks, are
    checked against the enumeration ceiling before any is built.  The
    sequences are walked depth first, one breakpoint per level: a node is
    the value of the last stretch so far and the mask so far, and each of
    the b^2 pairs (u_i, v_i) sets bit i unless both equal that value.  A
    sequence thus costs O(1), not O(k), and the stack holds at most
    k b^2 nodes; every sequence is still visited once.
    """
    length = 2 * k + 1
    check_enumeration(
        bsize ** length * length + (1 << k),
        f"the value sequences of maps into {bsize} points with {k} breakpoints "
        "(finite_map_count and finite_pair_count count them)",
    )
    counts = [0] * (1 << k)
    steps = tuple(itertools.product(range(bsize), repeat=2))
    stack = [(v, 0, 0) for v in range(bsize)]  # (last stretch value, breakpoints, mask)
    while stack:
        prev, i, mask = stack.pop()
        if i == k:
            counts[mask] += 1
            continue
        broken = mask | 1 << i
        if i == k - 1:  # the last breakpoint: each pair ends one sequence
            for u, v in steps:
                counts[mask if u == v == prev else broken] += 1
        else:
            stack.extend((v, i + 1, mask if u == v == prev else broken) for u, v in steps)
    return counts


def map_pair_count(bsize: int, k: int) -> int:
    """finite_pair_count by enumeration, its test oracle.

    Every map over the k nominal breakpoints is enumerated and bucketed
    by its exact breakpoint set; pairs are then combined exactly, so the
    result is an exhaustive count, not a closed-form shortcut.
    """
    bsize, k = _map_count_args(bsize, k)
    counts = _breakpoint_mask_counts(bsize, k)
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


def _pair_closed_form(bsize: int) -> FactoredForm:
    """(1/2)(b^2/(1 + (b^4-1)t) - b/(1 + (b^2-1)t)), from the two
    geometric sequences of finite_pair_count; for b = 1 it is 0."""
    wide, narrow = bsize ** 4 - 1, bsize ** 2 - 1
    num = (bsize ** 2 - bsize, bsize ** 2 * narrow - bsize * wide)
    return FactoredForm(num, 2, ((wide, 1), (narrow, 1)))


def map_pair_measure(bsize: int, terms: int | None = None) -> Regularized:
    """Series and value for unordered distinct pairs of maps from (0,1).

    The pair rank is the size of the union of the two breakpoint sets.
    The value is binom(1/bsize, 2), the pairs of the map space of
    measure 1/bsize.
    """
    bsize = _codomain_size(bsize)
    return regularize(Construction(
        order_bound=PAIR_ORDER_BOUND, closed_form=lambda: _pair_closed_form(bsize),
        count=lambda k: finite_pair_count(bsize, k), weight=-1,
        routes=lambda: {"generalized_binomial": gen_binomial(Fraction(1, bsize), 2)},
        grading=GRADING,
    ), terms)


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


def schanuel_count(chi_b: int, k: int) -> int:
    """Measure of the maps from (0,1) into B, chi(B) = chi_b, breaking at
    exactly a fixed k-set: Mobius inversion over the subset lattice of
    chi(B)^(2j+1), the maps with breakpoints inside a fixed j-set (one
    chi(B) per breakpoint value and per stretch), with running binomials."""
    binoms = itertools.accumulate(range(k), lambda b, j: b * (k - j) // (j + 1), initial=1)
    return sum((-1) ** (k - j) * b * chi_b ** (2 * j + 1) for j, b in enumerate(binoms))


def schanuel_measure(
    codomain: PolyhedralSet1D | int, terms: int | None = None
) -> Regularized:
    """Regularized measure of the full map space from (0,1) into B.

    The value is 1/chi(B), or 0 when chi(B) = 0: then every coefficient
    vanishes, so the closed form is literally 0 and evaluation at t=1
    never sees the nominal pole.

    A concrete codomain must be compact; its measure is taken from the
    affine endpoint-pair region rather than assumed.
    """
    if isinstance(codomain, PolyhedralSet1D):
        chi_b = affine_pair_space(codomain).measure
    else:
        chi_b = as_integer(codomain, "--chib must be an integer")
    return regularize(Construction(
        order_bound=1, closed_form=lambda: binomial_closed_form(-1, chi_b ** 2 - 1, chi_b),
        count=lambda k: schanuel_count(chi_b, k), weight=-1,
        routes=lambda: {"reciprocal_codomain_measure": Fraction(0) if chi_b == 0
                        else Fraction(1, chi_b)},
        grading=GRADING,
    ), terms)
