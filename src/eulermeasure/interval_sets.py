"""Exact algebra of one-dimensional polyhedral sets.

A polyhedral subset of the real line is a finite union of rational
points and open intervals with rational or infinite endpoints.  The
canonical form keeps the pieces sorted left to right and pairwise
disjoint, with open intervals maximal: a point lying between two open
intervals that together span one interval is absorbed, so
``(0,1) u {1} u (1,2)`` is stored as ``(0,2)``.  A point touching an
interval on one side only is kept, so the half-open ``[0,1)`` is stored
as ``{0} u (0,1)``.  Closed and half-open intervals exist only as
constructor sugar and decompose immediately: ``[0,1]`` becomes
``{0} u (0,1) u {1}``.

The Euler measure of a canonical set is::

    (number of point pieces) - (number of open-interval pieces)

It is the unique valuation with chi = (-1)^k on open k-cells, satisfies
chi(A | B) = chi(A) + chi(B) - chi(A & B), coincides with cardinality on
finite sets, and is *not* a homotopy invariant (an open interval has
measure -1, a closed one +1).

Costs, with n the number of pieces:

- A literal (``segment``, ``open_interval``) costs O(1): once its ends
  are checked (lower < upper, closed ends finite) its one to three
  pieces are already canonical, so no sweep runs.
- ``from_pieces`` takes pieces in any order and costs O(n log n): it
  sorts the distinct endpoints, indexes them once, and sweeps.
- Intersection, difference, complement and classification cost O(n),
  with no sort and no hashing.  The sorted coordinates of a canonical
  operand, and the membership of its cells, are read off its pieces in
  one pass.  A binary operation merges the two coordinate lists into
  its one coordinate index and flags every cell of the merge in the
  same walk.  Union splices instead: only the pieces of the larger
  operand near the smaller one are merged, so adding k pieces to an
  n-piece set costs O(k + log n) Python steps plus one copy of the
  untouched pieces.
- ``restrict_open`` bisects twice and clips the two end pieces:
  O(log n + pieces in the window).

Every piece an operation emits takes its ends from its operands'
pieces, which the public constructors already made exact Fractions,
and an interval's left end comes before its right end in a sorted list
of distinct coordinates, so the constructor checks (coercion to
Fraction, left < right) cannot fail on it.  The kernel builds those
pieces without the checks; the public constructors keep all of them
for outside input.

All values here are immutable; every operation is pure, so instances
may be shared freely across threads.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from itertools import accumulate
from operator import and_, gt, or_
from typing import Iterable, Sequence, Union

from .errors import InputError
from .rationals import as_fraction


@total_ordering
@dataclass(frozen=True)
class ExtendedRational:
    """A rational number, or one of the symbols -inf / +inf.

    ``rank`` is -1 for -inf, 0 for a finite value, +1 for +inf; the
    total order is (rank, value), so -inf < q < +inf for every finite q.
    """

    rank: int
    value: Fraction = Fraction(0)

    def __post_init__(self):
        if self.rank not in (-1, 0, 1):
            raise InputError(f"invalid extended-rational rank {self.rank!r}")
        if self.rank != 0:
            object.__setattr__(self, "value", Fraction(0))
        elif not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", as_fraction(self.value))

    @staticmethod
    def finite(value) -> "ExtendedRational":
        return ExtendedRational(0, as_fraction(value))

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    def __lt__(self, other: "ExtendedRational") -> bool:
        if not isinstance(other, ExtendedRational):
            return NotImplemented
        if self.rank != other.rank:
            return self.rank < other.rank
        return self.rank == 0 and self.value < other.value

    def __str__(self) -> str:
        if self.rank < 0:
            return "-inf"
        if self.rank > 0:
            return "inf"
        return str(self.value)


NEG_INF = ExtendedRational(-1)
POS_INF = ExtendedRational(1)


def ext(value) -> ExtendedRational:
    """Coerce a finite rational (or an ExtendedRational) to ExtendedRational."""
    if isinstance(value, ExtendedRational):
        return value
    return ExtendedRational.finite(value)


@dataclass(frozen=True)
class Point:
    """A single rational point."""

    at: Fraction

    def __post_init__(self):
        if not isinstance(self.at, Fraction):
            object.__setattr__(self, "at", as_fraction(self.at))

    def __str__(self) -> str:
        return "{%s}" % self.at


@dataclass(frozen=True)
class OpenInterval:
    """An open interval (left, right); endpoints may be infinite."""

    left: ExtendedRational
    right: ExtendedRational

    def __post_init__(self):
        object.__setattr__(self, "left", ext(self.left))
        object.__setattr__(self, "right", ext(self.right))
        if not self.left < self.right:
            raise InputError(f"malformed interval: {self.left} >= {self.right}")

    def __str__(self) -> str:
        return f"({self.left},{self.right})"


Piece = Union[Point, OpenInterval]


# The same frozen values as the public constructors give, built without
# their checks, for arguments that already pass them: a Fraction value, a
# Fraction point, and ExtendedRational ends with left < right.  The kernel
# builds every piece it emits with these (see the module docstring).


def _finite(value: Fraction) -> ExtendedRational:
    bound = object.__new__(ExtendedRational)
    bound.__dict__.update(rank=0, value=value)
    return bound


def _point(at: Fraction) -> Point:
    piece = object.__new__(Point)
    piece.__dict__["at"] = at
    return piece


def _open(left: ExtendedRational, right: ExtendedRational) -> OpenInterval:
    piece = object.__new__(OpenInterval)
    piece.__dict__.update(left=left, right=right)
    return piece


@dataclass(frozen=True)
class ComponentDescriptor:
    """One connected component of a canonical set."""

    lower: ExtendedRational
    upper: ExtendedRational
    closed_lower: bool
    closed_upper: bool
    is_point: bool

    @property
    def bounded(self) -> bool:
        return self.lower.is_finite and self.upper.is_finite

    @property
    def closed(self) -> bool:
        # An end at infinity has no endpoint to miss; only finite open
        # ends make a component non-closed as a subset of R.
        lower_ok = self.closed_lower or not self.lower.is_finite
        upper_ok = self.closed_upper or not self.upper.is_finite
        return self.is_point or (lower_ok and upper_ok)


@dataclass(frozen=True)
class Classification:
    """Answers to the standard shape questions about a canonical set."""

    finite: bool
    cardinality: int | None
    compact: bool
    components: tuple[ComponentDescriptor, ...]
    has_isolated_points: bool


# Elementary cells: given the sorted finite critical coordinates
# x_0 < ... < x_{n-1} of the operands, the line splits into the 2n+1 cells
# (-inf,x_0), {x_0}, (x_0,x_1), ..., {x_{n-1}}, (x_{n-1},+inf), so cell
# 2i+1 is the point x_i and cell 2i is the open gap below it.  Every piece
# of every operand is a union of such cells, so membership is constant on
# each cell, and the result of any operation is read off one flag per
# cell.
#
# Canonical operands give their cells in one pass (_cells): their finite
# ends, read left to right, never decrease.  _merge walks two such cell
# lists together, as the merge step of merge sort, and flags the cells of
# the merged coordinates.  Raw pieces from outside (_normalize) come in any
# order: _critical_coordinates sorts their distinct ends, and _cell_flags
# marks the cells in one sweep: a point marks its own cell, an open
# interval (x_a, x_b) adds +1 at cell 2a+2 (cell 0 at -inf) and -1 after
# cell 2b (after the last cell at +inf), and a running sum of these
# differences counts the intervals over each cell.
# _cell_in tests one cell against every piece, O(n) per cell: contains()
# asks it about a single point, and with _elementary_cells, which spells
# the cells out, it is the reference the sweeps are tested against.
_CellList = list  # of ("pt", Fraction) | ("iv", ExtendedRational, ExtendedRational)


def _critical_coordinates(piece_lists: Sequence[Sequence[Piece]]) -> list[Fraction]:
    coords = set()
    for pieces in piece_lists:
        for piece in pieces:
            if isinstance(piece, Point):
                coords.add(piece.at)
            else:
                if piece.left.is_finite:
                    coords.add(piece.left.value)
                if piece.right.is_finite:
                    coords.add(piece.right.value)
    return sorted(coords)


def _cell_flags(pieces: Sequence[Piece], coords: Sequence[Fraction]) -> list[bool]:
    """Membership of every elementary cell of ``coords``, in one sweep."""
    index = {x: i for i, x in enumerate(coords)}
    last = 2 * len(coords)
    marked = [False] * (last + 1)
    diff = [0] * (last + 2)
    for piece in pieces:
        if isinstance(piece, Point):
            marked[2 * index[piece.at] + 1] = True
        else:
            diff[2 * index[piece.left.value] + 2 if piece.left.is_finite else 0] += 1
            diff[2 * index[piece.right.value] + 1 if piece.right.is_finite else last + 1] -= 1
    return [m or depth > 0 for m, depth in zip(marked, accumulate(diff))]


def _cells(pieces: Sequence[Piece]) -> tuple[list[Fraction], list[bool]]:
    """The coordinates of canonical pieces and the membership of their cells.

    A coordinate repeats only where one piece ends and the next begins,
    so comparing each end with the last coordinate seen is enough.
    """
    coords: list[Fraction] = []
    flags = [False]
    for piece in pieces:
        if isinstance(piece, Point):
            x = piece.at
            if coords and (coords[-1] is x or coords[-1] == x):
                flags[-2] = True  # x closes the interval just read
            else:
                coords.append(x)
                flags += (True, False)
            continue
        left = piece.left
        if left.rank or coords and (coords[-1] is left.value or coords[-1] == left.value):
            flags[-1] = True  # the gap above the last coordinate, or below all
        else:
            coords.append(left.value)
            flags += (False, True)
        if not piece.right.rank:
            coords.append(piece.right.value)
            flags += (False, False)
    return coords, flags


def _merge(a: Sequence[Piece], b: Sequence[Piece], keep) -> tuple[Piece, ...]:
    """The canonical pieces of ``keep(in a, in b)`` for canonical a and b."""
    xa, fa = _cells(a)
    xb, fb = _cells(b)
    na, nb = len(xa), len(xb)
    coords: list[Fraction] = []
    flags = [keep(fa[0], fb[0])]
    i = j = 0
    while i < na or j < nb:
        # The next coordinate is a point cell of the operand it comes from
        # and lies in a gap cell of the other; i and j then count each
        # operand's coordinates up to it, so 2i and 2j are the gaps above.
        if j == nb or i < na and xa[i] < xb[j]:
            x, cell_a, cell_b = xa[i], 2 * i + 1, 2 * j
            i += 1
        elif i == na or xb[j] < xa[i]:
            x, cell_a, cell_b = xb[j], 2 * i, 2 * j + 1
            j += 1
        else:
            x, cell_a, cell_b = xa[i], 2 * i + 1, 2 * j + 1
            i += 1
            j += 1
        coords.append(x)
        flags += (keep(fa[cell_a], fb[cell_b]), keep(fa[2 * i], fb[2 * j]))
    return _assemble(coords, flags)


def _elementary_cells(coords: Sequence[Fraction]) -> _CellList:
    if not coords:
        return [("iv", NEG_INF, POS_INF)]
    cells: _CellList = [("iv", NEG_INF, ext(coords[0]))]
    for i, x in enumerate(coords):
        cells.append(("pt", x))
        hi = ext(coords[i + 1]) if i + 1 < len(coords) else POS_INF
        cells.append(("iv", ext(x), hi))
    return cells


def _cell_in(pieces: Sequence[Piece], cell) -> bool:
    if cell[0] == "pt":
        q = ext(cell[1])
        for piece in pieces:
            if isinstance(piece, Point):
                if piece.at == cell[1]:
                    return True
            elif piece.left < q < piece.right:
                return True
        return False
    _, lo, hi = cell
    # Cell endpoints are critical, so an interval piece either covers
    # the whole cell or misses it.
    for piece in pieces:
        if isinstance(piece, OpenInterval) and piece.left <= lo and hi <= piece.right:
            return True
    return False


def _runs(flags: Sequence[bool]):
    start = None
    for i, flag in enumerate(flags):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            yield start, i - 1
            start = None
    if start is not None:
        yield start, len(flags) - 1


def _run_descriptor(coords: Sequence[Fraction], start: int, stop: int) -> ComponentDescriptor:
    # A run starts at a point cell 2i+1 or a gap cell 2i+2, both with
    # lower end x_i, and stops at a cell 2i+1 or 2i with upper end x_i.
    lower = _finite(coords[(start - 1) // 2]) if start > 0 else NEG_INF
    upper = _finite(coords[stop // 2]) if stop < 2 * len(coords) else POS_INF
    closed_lower, closed_upper = start % 2 == 1, stop % 2 == 1
    return ComponentDescriptor(
        lower, upper, closed_lower, closed_upper, start == stop and closed_lower
    )


def _assemble(coords: Sequence[Fraction], flags: Sequence[bool]) -> tuple[Piece, ...]:
    """The canonical pieces of the runs of member cells."""
    pieces: list[Piece] = []
    last = 2 * len(coords)
    upper = NEG_INF  # the previous run's upper end, shared with the next run
    for start, stop in _runs(flags):
        if start % 2:
            pieces.append(_point(coords[start // 2]))
            if start == stop:
                continue
        if start == 0:
            lower = NEG_INF
        elif upper.rank == 0 and upper.value is coords[(start - 1) // 2]:
            lower = upper
        else:
            lower = _finite(coords[(start - 1) // 2])
        upper = _finite(coords[stop // 2]) if stop < last else POS_INF
        pieces.append(_open(lower, upper))
        if stop % 2:
            pieces.append(_point(coords[stop // 2]))
    return tuple(pieces)


def _lower_end(piece: Piece) -> ExtendedRational:
    return _finite(piece.at) if isinstance(piece, Point) else piece.left


def _upper_end(piece: Piece) -> ExtendedRational:
    return _finite(piece.at) if isinstance(piece, Point) else piece.right


def _normalize(raw: Iterable[Piece]) -> tuple[Piece, ...]:
    raw = list(raw)
    for piece in raw:
        if not isinstance(piece, (Point, OpenInterval)):
            raise InputError(f"not a piece: {piece!r}")
    coords = _critical_coordinates([raw])
    return _assemble(coords, _cell_flags(raw, coords))


@dataclass(frozen=True)
class PolyhedralSet1D:
    """Canonical finite union of rational points and open intervals.

    Construct through :meth:`from_pieces`, :func:`canonicalize` or the
    module-level constructors; the raw constructor trusts its argument
    to be canonical already.
    """

    pieces: tuple[Piece, ...] = ()

    # -- constructors ------------------------------------------------

    @classmethod
    def from_pieces(cls, pieces: Iterable[Piece]) -> "PolyhedralSet1D":
        return cls(_normalize(pieces))

    @classmethod
    def empty(cls) -> "PolyhedralSet1D":
        return cls(())

    # -- set operations ----------------------------------------------

    def _binary(self, other: "PolyhedralSet1D", keep) -> "PolyhedralSet1D":
        return PolyhedralSet1D(_merge(self.pieces, other.pieces, keep))

    def union(self, other: "PolyhedralSet1D") -> "PolyhedralSet1D":
        """Splice the smaller operand into the larger one.

        Only the larger operand's pieces whose closures meet the closed
        hull of the smaller operand can change.  That window, widened by
        one piece on each side as a margin, is merged with the smaller
        operand, and the pieces on either side are reused as they are.
        With k and n the operands' piece counts, k <= n, that costs
        O(k + log n) Python steps plus one copy of n references.  The
        result equals ``self._binary(other, or_)``, the full merge.
        """
        big, small = self.pieces, other.pieces
        if len(big) < len(small):
            big, small = small, big
        if not small:
            return PolyhedralSet1D(big)
        # Canonical pieces are sorted and disjoint, so both of their ends
        # are non-decreasing along the tuple.
        lo = max(bisect_left(big, _lower_end(small[0]), key=_upper_end) - 1, 0)
        hi = bisect_right(big, _upper_end(small[-1]), key=_lower_end) + 1
        return PolyhedralSet1D(big[:lo] + _merge(big[lo:hi], small, or_) + big[hi:])

    def intersect(self, other: "PolyhedralSet1D") -> "PolyhedralSet1D":
        return self._binary(other, and_)

    def difference(self, other: "PolyhedralSet1D") -> "PolyhedralSet1D":
        return self._binary(other, gt)  # on flags, a > b is a and not b

    def complement(self) -> "PolyhedralSet1D":
        coords, flags = _cells(self.pieces)
        return PolyhedralSet1D(_assemble(coords, [not flag for flag in flags]))

    __or__ = union
    __and__ = intersect
    __sub__ = difference
    __invert__ = complement

    # -- queries -----------------------------------------------------

    def euler_measure(self) -> int:
        points = sum(1 for p in self.pieces if isinstance(p, Point))
        return 2 * points - len(self.pieces)

    def contains(self, value) -> bool:
        q = as_fraction(value)
        return _cell_in(self.pieces, ("pt", q))

    def classify(self) -> Classification:
        coords, flags = _cells(self.pieces)
        components = tuple(_run_descriptor(coords, a, b) for a, b in _runs(flags))
        finite = all(isinstance(p, Point) for p in self.pieces)
        cardinality = len(self.pieces) if finite else None
        compact = all(c.bounded and c.closed for c in components)
        isolated = any(c.is_point for c in components)
        return Classification(finite, cardinality, compact, components, isolated)

    def restrict_open(self, lower, upper) -> "PolyhedralSet1D":
        """Intersect with the open interval (lower, upper).

        The pieces that meet the window form one slice, found by two
        bisects: those whose upper end lies above lower and whose lower
        end lies below upper, so a point at either bound is left out.
        Only the first and the last of them can reach past the window,
        and those are clipped: O(log n + pieces in the window).
        """
        lo, hi = ext(lower), ext(upper)
        if not lo < hi:
            raise InputError(f"empty restriction window: {lo} >= {hi}")
        pieces = self.pieces
        inside = list(pieces[bisect_right(pieces, lo, key=_upper_end):
                             bisect_left(pieces, hi, key=_lower_end)])
        if inside and isinstance(inside[0], OpenInterval) and inside[0].left < lo:
            inside[0] = _open(lo, inside[0].right)
        if inside and isinstance(inside[-1], OpenInterval) and hi < inside[-1].right:
            inside[-1] = _open(inside[-1].left, hi)
        return PolyhedralSet1D(tuple(inside))

    def shift(self, delta) -> "PolyhedralSet1D":
        """Translate every piece by a fixed rational; canonical form is preserved."""
        d = as_fraction(delta)

        def move(bound: ExtendedRational) -> ExtendedRational:
            return _finite(bound.value + d) if bound.is_finite else bound

        moved: list[Piece] = []
        for piece in self.pieces:
            if isinstance(piece, Point):
                moved.append(_point(piece.at + d))
            else:
                moved.append(_open(move(piece.left), move(piece.right)))
        return PolyhedralSet1D(tuple(moved))

    def __str__(self) -> str:
        if not self.pieces:
            return "{}"
        return " u ".join(str(p) for p in self.pieces)


# -- module-level operation surface ----------------------------------


def canonicalize(pieces: Iterable[Piece]) -> PolyhedralSet1D:
    """Bring an arbitrary collection of pieces to canonical form."""
    return PolyhedralSet1D.from_pieces(pieces)


def combine(a: PolyhedralSet1D, b: PolyhedralSet1D, op: str) -> PolyhedralSet1D:
    """Apply a named boolean operation: union, intersect or difference."""
    try:
        method = {"union": a.union, "intersect": a.intersect, "difference": a.difference}[op]
    except KeyError:
        raise InputError(f"unknown set operation {op!r}") from None
    return method(b)


def complement(a: PolyhedralSet1D) -> PolyhedralSet1D:
    """Complement within the whole real line."""
    return a.complement()


def classify(a: PolyhedralSet1D) -> Classification:
    return a.classify()


def points(values: Iterable) -> PolyhedralSet1D:
    """The finite set consisting of the given rational points."""
    return PolyhedralSet1D.from_pieces(_point(as_fraction(v)) for v in values)


def open_interval(lower, upper) -> PolyhedralSet1D:
    """The open interval (lower, upper); endpoints may be infinite."""
    return segment(lower, upper)


def segment(lower, upper, include_lower: bool = False, include_upper: bool = False) -> PolyhedralSet1D:
    """An interval literal with optional closed ends.

    This is constructor sugar only: a closed end contributes a Point
    piece, so ``segment(0, 1, True, True)`` is ``{0} u (0,1) u {1}``.
    Closed ends must be finite.  Once those checks pass the pieces are
    canonical as they stand.
    """
    lo, hi = ext(lower), ext(upper)
    if not lo < hi:
        raise InputError(f"malformed interval: {lo} >= {hi}")
    if include_lower and not lo.is_finite:
        raise InputError("cannot close an interval at -inf")
    if include_upper and not hi.is_finite:
        raise InputError("cannot close an interval at inf")
    pieces: list[Piece] = []
    if include_lower:
        pieces.append(_point(lo.value))
    pieces.append(_open(lo, hi))
    if include_upper:
        pieces.append(_point(hi.value))
    return PolyhedralSet1D(tuple(pieces))
