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

Canonicalization, intersection, difference, complement and
classification all cut the line at the operands' endpoints into
elementary cells, compute every cell's membership in one sweep over the
sorted coordinates, and read the canonical pieces off the runs of
member cells.  Each costs O(n log n) in the number n of pieces.  Union
splices instead: only the pieces of the larger operand near the smaller
one are swept, so adding k pieces to an n-piece set costs O(k log k +
log n) Python steps plus one copy of the untouched pieces.

All values here are immutable; every operation is pure, so instances
may be shared freely across threads.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from itertools import accumulate
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
        return (self.rank, self.value) < (other.rank, other.value)

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
# cell.  _cell_flags computes all the flags in one sweep: a point marks
# its own cell, an open interval (x_a, x_b) adds +1 at cell 2a+2 (cell 0
# at -inf) and -1 after cell 2b (after the last cell at +inf), and a
# running sum of these differences counts the intervals over each cell.
# With the sort of the coordinates that is O(n log n) per operation.
# _cell_in tests one cell against every piece, O(n) per cell: contains()
# asks it about a single point, and with _elementary_cells, which spells
# the cells out, it is the reference the sweep is tested against.
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
    lower = ext(coords[(start - 1) // 2]) if start > 0 else NEG_INF
    upper = ext(coords[stop // 2]) if stop < 2 * len(coords) else POS_INF
    closed_lower, closed_upper = start % 2 == 1, stop % 2 == 1
    return ComponentDescriptor(
        lower, upper, closed_lower, closed_upper, start == stop and closed_lower
    )


def _component_pieces(desc: ComponentDescriptor) -> list[Piece]:
    if desc.is_point:
        return [Point(desc.lower.value)]
    pieces: list[Piece] = []
    if desc.closed_lower:
        pieces.append(Point(desc.lower.value))
    pieces.append(OpenInterval(desc.lower, desc.upper))
    if desc.closed_upper:
        pieces.append(Point(desc.upper.value))
    return pieces


def _assemble(coords: Sequence[Fraction], flags: Sequence[bool]) -> tuple[Piece, ...]:
    pieces: list[Piece] = []
    for start, stop in _runs(flags):
        pieces.extend(_component_pieces(_run_descriptor(coords, start, stop)))
    return tuple(pieces)


def _lower_key(piece: Piece) -> tuple[int, Fraction]:
    if isinstance(piece, Point):
        return (0, piece.at)
    return (piece.left.rank, piece.left.value)


def _upper_key(piece: Piece) -> tuple[int, Fraction]:
    if isinstance(piece, Point):
        return (0, piece.at)
    return (piece.right.rank, piece.right.value)


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
        coords = _critical_coordinates([self.pieces, other.pieces])
        flags = map(keep, _cell_flags(self.pieces, coords), _cell_flags(other.pieces, coords))
        return PolyhedralSet1D(_assemble(coords, list(flags)))

    def union(self, other: "PolyhedralSet1D") -> "PolyhedralSet1D":
        """Splice the smaller operand into the larger one.

        Only the larger operand's pieces whose closures meet the closed
        hull of the smaller operand can change.  That window, widened by
        one piece on each side as a margin, is canonicalized together with
        the smaller operand, and the pieces on either side are reused as
        they are.  With k and n the operands' piece counts, k <= n, that
        costs O(k log k + log n) Python steps plus one copy of n
        references.  The result equals ``self._binary(other, or)``, the
        full sweep.
        """
        big, small = self.pieces, other.pieces
        if len(big) < len(small):
            big, small = small, big
        if not small:
            return PolyhedralSet1D(big)
        # Canonical pieces are sorted and disjoint, so both of their ends
        # are non-decreasing along the tuple.
        lo = max(bisect_left(big, _lower_key(small[0]), key=_upper_key) - 1, 0)
        hi = bisect_right(big, _upper_key(small[-1]), key=_lower_key) + 1
        return PolyhedralSet1D(big[:lo] + _normalize(big[lo:hi] + small) + big[hi:])

    def intersect(self, other: "PolyhedralSet1D") -> "PolyhedralSet1D":
        return self._binary(other, lambda a, b: a and b)

    def difference(self, other: "PolyhedralSet1D") -> "PolyhedralSet1D":
        return self._binary(other, lambda a, b: a and not b)

    def complement(self) -> "PolyhedralSet1D":
        coords = _critical_coordinates([self.pieces])
        flags = [not flag for flag in _cell_flags(self.pieces, coords)]
        return PolyhedralSet1D(_assemble(coords, flags))

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
        coords = _critical_coordinates([self.pieces])
        flags = _cell_flags(self.pieces, coords)
        components = tuple(_run_descriptor(coords, a, b) for a, b in _runs(flags))
        finite = all(isinstance(p, Point) for p in self.pieces)
        cardinality = len(self.pieces) if finite else None
        compact = all(c.bounded and c.closed for c in components)
        isolated = any(c.is_point for c in components)
        return Classification(finite, cardinality, compact, components, isolated)

    def restrict_open(self, lower, upper) -> "PolyhedralSet1D":
        """Intersect with the open interval (lower, upper)."""
        lo, hi = ext(lower), ext(upper)
        if not lo < hi:
            raise InputError(f"empty restriction window: {lo} >= {hi}")
        return self.intersect(PolyhedralSet1D((OpenInterval(lo, hi),)))

    def shift(self, delta) -> "PolyhedralSet1D":
        """Translate every piece by a fixed rational; canonical form is preserved."""
        d = as_fraction(delta)

        def move(bound: ExtendedRational) -> ExtendedRational:
            return ext(bound.value + d) if bound.is_finite else bound

        moved: list[Piece] = []
        for piece in self.pieces:
            if isinstance(piece, Point):
                moved.append(Point(piece.at + d))
            else:
                moved.append(OpenInterval(move(piece.left), move(piece.right)))
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
    return PolyhedralSet1D.from_pieces(Point(as_fraction(v)) for v in values)


def open_interval(lower, upper) -> PolyhedralSet1D:
    """The open interval (lower, upper); endpoints may be infinite."""
    return PolyhedralSet1D.from_pieces([OpenInterval(ext(lower), ext(upper))])


def segment(lower, upper, include_lower: bool = False, include_upper: bool = False) -> PolyhedralSet1D:
    """An interval literal with optional closed ends.

    This is constructor sugar only: a closed end contributes a Point
    piece, so ``segment(0, 1, True, True)`` is ``{0} u (0,1) u {1}``.
    Closed ends must be finite.
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
        pieces.append(Point(lo.value))
    pieces.append(OpenInterval(lo, hi))
    if include_upper:
        pieces.append(Point(hi.value))
    return PolyhedralSet1D.from_pieces(pieces)
