"""Parity-constrained finite subsets of a 1-D set.

For a canonical set P, consider the finite subsets S of P such that the
measure of P-minus-S restricted to the open gap between any two
neighbours of S (including the virtual neighbours at -inf and +inf) is
even.  Gap measures add along consecutive selected points, so checking
consecutive gaps is equivalent to checking all pairs; the test suite
re-verifies that reduction exhaustively on finite sets.

Grading by |S|, the strata are open cells whose dimension is the number
of selected points lying inside open-interval pieces, so each valid
placement contributes (-1)^(interval-placed points).  The regularized
value of the resulting series equals the Fibonacci number F(chi(P)+1),
with the Fibonacci sequence continued to negative indices by running
its recurrence backward.

The series is counted by a two-state automaton over the pieces (the
transfer-matrix method, Stanley, EC1 section 4.7).  The state is the
parity of the open gap's measure so far; each state carries an integer
polynomial in t.  Reading left to right from (even, odd) = (1, 0):

* a point maps (even, odd) to (odd + t*even, even): skipping it flips
  the parity, and selecting it needs an even gap and restarts the gap;
* an open interval or ray maps (even, odd) to (odd, even - t*odd):
  skipping it flips the parity, and one point inside needs an odd gap
  before it, leaves a fragment of measure -1 after it and carries the
  sign -1.  Two points inside leave an odd fragment between them, so
  they never count.

The series is the even state after the last piece: a polynomial of
degree at most the number of pieces, in O(pieces^2) integer steps, and
its own closed form.  Enumerating every placement (enumerate_placements,
placement_gap_measures, parity_strata_coefficient) is the bounded oracle
the tests and the verify suite hold the automaton against.
"""

from __future__ import annotations

from .choose_construction import PlacementDescriptor, enumerate_placements
from .errors import ResourceLimitError
from .exact_series import Polynomial, RationalFunction, Regularized, closed_series, series_window
from .interval_sets import Point, PolyhedralSet1D
from .limits import check_terms

GRADING = "rank"
DEFAULT_STRATA_CAP = 10


def extended_fibonacci(n: int) -> int:
    """F(n) for any integer n, F(1) = F(2) = 1, extended both ways."""
    if n >= 0:
        a, b = 0, 1
        for _ in range(n):
            a, b = b, a + b
        return a
    # backward: F(n-1) = F(n+1) - F(n)
    a, b = 0, 1  # F(0), F(1)
    for _ in range(-n):
        a, b = b - a, a
    return a


def placement_gap_measures(P: PolyhedralSet1D, placement: PlacementDescriptor) -> list[int]:
    """chi of P-minus-S in every gap between consecutive selected points.

    Walks the pieces once, accumulating whole untouched pieces and the
    open fragments that selected points cut out of interval pieces.
    Positions inside an interval are symbolic; the fragments they leave
    are nonempty open intervals regardless, each of measure -1.
    """
    gaps: list[int] = []
    current = 0
    for piece, count in zip(P.pieces, placement.counts):
        if isinstance(piece, Point):
            if count:
                gaps.append(current)
                current = 0
            else:
                current += 1
        elif count == 0:
            current -= 1
        else:
            gaps.append(current - 1)  # fragment left of the first selected point
            gaps.extend([-1] * (count - 1))  # fragments between points inside
            current = -1  # fragment right of the last selected point
    gaps.append(current)
    return gaps


def parity_strata_coefficient(
    P: PolyhedralSet1D, k: int, cap: int = DEFAULT_STRATA_CAP
) -> int:
    """Signed count of the k-point strata whose gap measures are all even.

    Two points in one open interval leave an odd gap between them, so
    no valid placement has more points than P has pieces.
    """
    if k > cap:
        raise ResourceLimitError(
            f"stratum enumeration capped at k <= {cap} (requested {k})"
        )
    if k > len(P.pieces):
        return 0
    total = 0
    for placement in enumerate_placements(P, k):
        if all(g % 2 == 0 for g in placement_gap_measures(P, placement)):
            total += -1 if placement.interval_points(P.pieces) % 2 else 1
    return total


def _plus_t_times(a: list[int], b: list[int], sign: int) -> list[int]:
    """a + sign * t * b for coefficient lists in ascending powers of t."""
    out = a + [0] * (len(b) + 1 - len(a))
    for i, c in enumerate(b, 1):
        out[i] += sign * c
    return out


def parity_polynomial(P: PolyhedralSet1D) -> list[int]:
    """Coefficients c_0, c_1, .. of the parity family's series, by the
    transfer matrix of the module docstring; c_k is
    parity_strata_coefficient(P, k), and the list has at most
    len(P.pieces) + 1 entries (every later coefficient is 0)."""
    even, odd = [1], [0]
    for piece in P.pieces:
        if isinstance(piece, Point):
            even, odd = _plus_t_times(odd, even, 1), even
        else:
            even, odd = odd, _plus_t_times(even, odd, -1)
    return even


def parity_length(P: PolyhedralSet1D) -> int:
    """len(parity_polynomial(P)) in O(pieces): the lengths of the two
    state lists follow the same steps as the lists themselves."""
    even, odd = 1, 1
    for piece in P.pieces:
        if isinstance(piece, Point):
            even, odd = max(odd, even + 1), even
        else:
            even, odd = odd, max(even, odd + 1)
    return even


def fibonacci_measure(P: PolyhedralSet1D, terms: int | None = None) -> Regularized:
    """Regularized measure of the parity-constrained subset family of P.

    The series is parity_polynomial as its own closed form; its length
    sizes the window, which is checked (from parity_length) before the
    O(pieces^2) count.  The last route, ``expected``, is F(chi(P) + 1); the
    counts are empty, since the coefficients are the stratum counts.
    """
    terms = series_window(parity_length(P)) if terms is None else check_terms(terms)
    coeffs = parity_polynomial(P)
    closed = RationalFunction(Polynomial(tuple(coeffs)), Polynomial.constant(1))
    series = closed_series(
        lambda k: coeffs[k] if k < len(coeffs) else 0, closed, len(coeffs), terms, GRADING
    )
    routes = {
        "series_regularization": series.regularized_value(),
        "extended_fibonacci": extended_fibonacci(P.euler_measure() + 1),
    }
    return Regularized.of(series, routes)
