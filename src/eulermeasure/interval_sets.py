"""Exact algebra of one-dimensional polyhedral sets.

A polyhedral subset of the real line is a finite union of rational
points and open intervals with rational or infinite endpoints.

Stored form.  A set is stored as its cell index over one denominator:
``nums``, the sorted tuple of integer numerators n_0 < ... < n_{m-1} of
its finite critical coordinates x_i = n_i / den, ``den``, the least
positive integer that makes every x_i * den an integer, and ``flags``,
one membership bool for each of the 2m+1 elementary cells (-inf,x_0),
{x_0}, (x_0,x_1), ..., {x_{m-1}}, (x_{m-1},+inf).  Cell 2i+1 is the
point x_i and cell 2i the open gap below it, so the ends at infinity are
``flags[0]`` and ``flags[-1]``.  In canonical form no coordinate has
equal flags on its gap below, its point and its gap above: such a
coordinate changes nothing and is dropped.  A set without coordinates,
``{}`` or the whole line, has den 1.  When the least denominator has
more than MAX_SCALE_BITS bits, ``nums`` holds the coordinates themselves
as Fractions and ``den`` is 0 (see Coordinates).  That form is unique,
so equality and hashing compare ``(nums, den, flags)``.

Pieces.  ``pieces`` is the same set as sorted, pairwise disjoint points
and open intervals, with open intervals maximal: a point lying between
two open intervals that together span one interval is absorbed, so
``(0,1) u {1} u (1,2)`` is ``(0,2)``.  A point touching an interval on
one side only is kept, so the half-open ``[0,1)`` is ``{0} u (0,1)``.
Closed and half-open intervals exist only as constructor sugar:
``[0,1]`` is ``{0} u (0,1) u {1}``.  The pieces, and ``coords``, the
coordinates as Fractions, are views built from the stored form on first
read and cached; ``str``, ``classify`` and the constructions that walk
the pieces read them, the set algebra and the queries never do.

The Euler measure is chi = sum of (-1)^dim over the member cells, which
for canonical pieces is::

    (number of point pieces) - (number of open-interval pieces)

It is the unique valuation with chi = (-1)^k on open k-cells, satisfies
chi(A | B) = chi(A) + chi(B) - chi(A & B), coincides with cardinality on
finite sets, and is *not* a homotopy invariant (an open interval has
measure -1, a closed one +1).

Costs, with n and k the coordinate counts of the operands, k <= n, in
Python steps on integers:

- A literal (``segment``, ``open_interval``) costs O(1): once its ends
  are checked (lower < upper, closed ends finite) and scaled to their
  least common denominator, ``_segment_cells`` writes it straight into
  cell form.  It is the one cell writer for interval literals: the parser
  calls it on the ends it has checked and scaled itself, so a parsed
  literal makes no ``ExtendedRational``.
- ``PolyhedralSet1D(pieces)``, and ``from_pieces``, take pieces in any
  order, overlapping or not, and cost O(n log n): they scale every end
  to the least common denominator D of the ends once, as n*(D // q),
  then sort the distinct numerators, index them once, and sweep.
- ``union`` splices: it bisects the smaller operand's first and last
  coordinate into the larger one's, merges the window between them
  (widened to the end of the line on a side where the smaller operand
  reaches infinity) and concatenates the untouched prefix and suffix:
  O(k + log n) steps plus one copy of the n coordinates.
- ``intersect`` and ``difference`` merge the two coordinate lists in one
  walk, as the merge step of merge sort: O(n + k).
- The binary operations merge the numerators directly when the two dens
  are equal; otherwise both operands are first rescaled to the lcm of the
  dens, one multiplication per coordinate.  A result over den > 1 is
  reduced to its least den by one C-level ``gcd`` of den and its
  numerators, which stops at the first numerator that makes it 1.
- ``complement`` flips the flags, O(n); ``shift`` rescales to the lcm of
  den and the step's denominator and adds, O(n); ``contains`` bisects on
  the exact integer floor of q*den, O(log n); ``restrict_open`` slices
  the cells between two such bisects and rescales the window where one of
  its ends becomes a coordinate, O(log n + cells in the window);
  ``euler_measure`` sums two slices of the flags, and ``classify`` reads
  the runs of member cells, O(n).
- ``coords`` and ``pieces`` cost O(n), once per set: one ``Fraction``
  per coordinate, then one piece per run of member cells.

Coordinates.  The set algebra only compares coordinates; only ``shift``
and ``restrict_open`` do arithmetic on them.  So the kernel runs
unchanged on any exact numbers of one kind: on integer numerators, where
each comparison is a C-level int compare and each hash an int hash, or
on Fractions.  Each integer numerator is about as long as den, so past a
point the long integers cost more than the comparisons save: a set whose
least denominator has more than MAX_SCALE_BITS bits keeps its
coordinates as Fractions (den 0), and an operation on it checks whether
its result fits under the bound again, which the first coordinates past
the bound settle.  The bound is set by the shape that gains least: a
point set of 100 or 1000 integers next to three literals over long
pairwise coprime denominators parsed on integers in 0.79 and 0.88 times
the time of Fractions at 300 bits, 0.91 and 1.09 at 600, 1.14 and 1.34
at 900, and 1.43 and 1.60 at 1,200.  Where every coordinate has a long
denominator, integers stay faster well past it: a constructor, three
boolean operations and a ``restrict_open`` on 50 to 800 pieces over 4 or
16 primes took 0.11 to 0.29 times the time of Fractions at 1,024 bits
and 0.15 to 0.49 at 2,048, with Python 3.11.7 on a 2-core x86-64
machine (``BENCH_integer_kernel.json``, bound_crossover).  The parser
scales an expression under the same bound (see ``setparse``).

Every piece the kernel emits takes its ends from ``coords``.  For every
set the parser returns and every set built through the public
constructors, those hold only exact Fractions from checked input, and an
interval's left end comes before its right end in that sorted list, so
the constructor checks (coercion to Fraction, left < right) cannot fail
on it.  The kernel builds those pieces without the checks; the public
constructors keep all of them for outside input.

All values here are immutable and every operation is pure, so instances
may be shared freely across threads.  The two cached views, ``coords``
and ``pieces``, are pure functions of ``(nums, den, flags)``: threads
that read one first at the same time each build an equal tuple, and the
instance keeps one of them in a single dictionary store, so no reader
sees a partial value and the set never changes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, total_ordering
from itertools import accumulate
from math import gcd, lcm
from operator import and_, gt, not_, or_
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


# The most bits the least common denominator of a set's coordinates may
# have for the set to be stored as integers over it; the parser scales the
# numbers of an expression under the same bound (see the module docstring).
MAX_SCALE_BITS = 1024


def _fits(den: int) -> bool:
    """Whether numbers over den are stored as integers; den 1 always is."""
    return den == 1 or den.bit_length() <= MAX_SCALE_BITS


def _scaled(values) -> tuple[tuple, int]:
    """Exact numbers, ints or Fractions, as numerators over their least
    common denominator, and that denominator; or the numbers as they are
    and 0 when it does not fit, which the first numbers past the bound
    show without reading the rest."""
    ratios = []
    den = 1
    for x in values:
        ratios.append(ratio := x.as_integer_ratio())
        if den % ratio[1]:
            den = lcm(den, ratio[1])
            if not _fits(den):
                return tuple(values), 0
    if den == 1:
        return tuple([p for p, _ in ratios]), 1
    return tuple([p * (den // q) for p, q in ratios]), den


def _wider(den: int, *dens: int) -> int:
    """The least common multiple of den and dens, or 0 when den is 0 or
    the multiple does not fit."""
    if den:
        den = lcm(den, *dens)
        if _fits(den):
            return den
    return 0


def _over(value, den: int):
    """An exact number as a numerator over den, a multiple of its
    denominator; for den 0, the number as it is."""
    if not den:
        return value
    p, q = value.as_integer_ratio()
    return p * (den // q)


def _rescaled(nums, den: int, wide: int):
    """Numerators over den as numerators over wide, a multiple of den, or
    as Fractions for wide 0."""
    if wide:
        factor = wide // den
        return nums if factor == 1 else tuple([x * factor for x in nums])
    if not den:
        return nums
    return tuple(map(Fraction, nums)) if den == 1 else tuple([Fraction(x, den) for x in nums])


# Elementary cells: the coordinates x_0 < ... < x_{n-1} split the line
# into the 2n+1 cells of the stored form (see the module docstring).
# Every piece of every operand is a union of the cells of the operands'
# coordinates, so membership is constant on each cell, and the result of
# any operation is read off one flag per cell.
#
# _merge walks the cells of two sets together, as the merge step of merge
# sort, flags the cells of the merged coordinates and drops a coordinate
# as soon as its three cells agree.  It only compares coordinates, so it
# runs on the numerators of two sets over one denominator, or on
# Fractions.  Raw pieces from outside (the constructor) come in any order:
# _sweep scales their distinct ends, sorts and indexes them, and marks the
# cells in one sweep: a point marks its own cell, an open interval
# (x_a, x_b) adds +1 at cell 2a+2 (cell 0 at -inf) and -1 after cell 2b
# (after the last cell at +inf), and a running sum of these differences
# counts the intervals over each cell.  The tests hold both against a
# scan that spells the cells out and tests each against every piece
# (tests/interval_reference.py).


def _sweep(raw: list) -> "PolyhedralSet1D":
    """The canonical set of points and open intervals in any order."""
    at, lows, highs = [], [], []
    for piece in raw:
        if isinstance(piece, Point):
            at.append(piece.at)
        elif isinstance(piece, OpenInterval):
            lows.append(piece.left)
            highs.append(piece.right)
        else:
            raise InputError(f"not a piece: {piece!r}")
    values = at + [b.value for b in lows if b.rank == 0] + [b.value for b in highs if b.rank == 0]
    nums, den = _scaled(values)
    coords = sorted(set(nums))
    index = {x: i for i, x in enumerate(coords)}
    last = 2 * len(coords)
    marked = [False] * (last + 1)
    for x in nums[:len(at)]:
        marked[2 * index[x] + 1] = True
    if not lows:  # points alone: every coordinate is kept, over den
        return _from_cells(tuple(coords), den, tuple(marked))
    ends = iter(nums[len(at):])
    diff = [0] * (last + 2)
    for bound in lows:
        diff[2 * index[next(ends)] + 2 if bound.rank == 0 else 0] += 1
    for bound in highs:
        diff[2 * index[next(ends)] + 1 if bound.rank == 0 else last + 1] -= 1
    flags = [m or depth > 0 for m, depth in zip(marked, accumulate(diff))]
    # merging with the empty set drops the coordinates that change nothing
    kept, flags = _merge(coords, flags, (), (False,), or_)
    if len(kept) < len(coords):  # a dropped coordinate may lower den
        return _stored(tuple(kept), den, tuple(flags))
    return _from_cells(tuple(kept), den, tuple(flags))


def _merge(xa: Sequence, fa: Sequence[bool], xb: Sequence, fb: Sequence[bool],
           keep) -> tuple[list, list[bool]]:
    """The canonical cells of ``keep(in a, in b)``, given the cells of a and b."""
    na, nb = len(xa), len(xb)
    coords: list = []
    flags = [keep(fa[0], fb[0])]
    i = j = 0
    while i < na or j < nb:
        # The next coordinate is a point cell of the operand it comes from
        # and lies in a gap cell of the other; i and j then count each
        # operand's coordinates up to it, so 2i and 2j are the gaps above.
        if j == nb or i < na and xa[i] < xb[j]:
            x, point = xa[i], keep(fa[2 * i + 1], fb[2 * j])
            i += 1
        elif i == na or xb[j] < xa[i]:
            x, point = xb[j], keep(fa[2 * i], fb[2 * j + 1])
            j += 1
        else:
            x, point = xa[i], keep(fa[2 * i + 1], fb[2 * j + 1])
            i += 1
            j += 1
        above = keep(fa[2 * i], fb[2 * j])
        if not flags[-1] == point == above:  # else x changes nothing
            coords.append(x)
            flags += (point, above)
    return coords, flags


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


def _from_cells(nums: tuple, den: int, flags: tuple[bool, ...]) -> "PolyhedralSet1D":
    """The set stored as nums, den and flags, which must already be its
    stored form; its coords and pieces are left to the first read."""
    s = object.__new__(PolyhedralSet1D)
    d = s.__dict__
    d["nums"], d["den"], d["flags"] = nums, den, flags
    return s


def _stored(nums: tuple, den: int, flags: tuple[bool, ...]) -> "PolyhedralSet1D":
    """The set of canonical cells at nums / den, over its least
    denominator: den divided by the gcd of den and every numerator, or for
    den 0 the Fractions' least common denominator when it fits."""
    if den != 1:
        if den:
            g = gcd(den, *nums)
            if g > 1:
                nums, den = tuple([x // g for x in nums]), den // g
        else:
            nums, den = _scaled(nums)
    return _from_cells(nums, den, flags)


@dataclass(frozen=True, init=False)
class PolyhedralSet1D:
    """Canonical finite union of rational points and open intervals.

    The stored state is the cell index ``nums``/``den``/``flags``,
    canonical as the module docstring defines it, and ``coords`` its
    coordinates as Fractions.  ``PolyhedralSet1D(pieces)`` canonicalizes
    any points and open intervals, in any order and overlapping or not;
    :meth:`from_pieces`, :func:`canonicalize` and the module-level
    constructors build the same sets.
    """

    nums: tuple
    den: int
    flags: tuple[bool, ...]

    def __init__(self, pieces: Iterable[Piece] = ()):
        self.__dict__.update(vars(_sweep(list(pieces))))

    @cached_property
    def coords(self) -> tuple[Fraction, ...]:
        return _rescaled(self.nums, self.den, 0)

    @cached_property
    def pieces(self) -> tuple[Piece, ...]:
        return _assemble(self.coords, self.flags)

    # -- constructors ------------------------------------------------

    @classmethod
    def from_pieces(cls, pieces: Iterable[Piece]) -> "PolyhedralSet1D":
        return _sweep(list(pieces))

    @classmethod
    def empty(cls) -> "PolyhedralSet1D":
        return _from_cells((), 1, (False,))

    # -- set operations ----------------------------------------------

    def _aligned(self, other: "PolyhedralSet1D") -> tuple:
        """The coordinates of operands with unequal dens over one
        denominator: the numerators of both over the lcm of their dens, or
        both as Fractions (den 0)."""
        da, db = self.den, other.den
        wide = _wider(da, db) if db else 0
        return _rescaled(self.nums, da, wide), _rescaled(other.nums, db, wide), wide

    def _binary(self, other: "PolyhedralSet1D", keep) -> "PolyhedralSet1D":
        if self.den == other.den:
            xs, ys, den = self.nums, other.nums, self.den
        else:
            xs, ys, den = self._aligned(other)
        coords, flags = _merge(xs, self.flags, ys, other.flags, keep)
        return _stored(tuple(coords), den, tuple(flags))

    def union(self, other: "PolyhedralSet1D") -> "PolyhedralSet1D":
        """Splice the smaller operand into the larger one.

        Only the larger operand's cells between the smaller one's first
        and last coordinate can change, and outside them only where the
        smaller operand reaches -inf or +inf.  That window is merged,
        and the coordinates and flags on either side are reused as they
        are: their neighbouring gap flags keep their values, so they stay
        canonical.  With k <= n the operands' coordinate counts, that
        costs O(k + log n) Python steps plus one copy of n entries, and
        one rescale of them where the operands' dens differ.  The result
        equals ``self._binary(other, or_)``, the full merge.
        """
        big, small = self, other
        if len(big.nums) < len(small.nums):
            big, small = small, big
        fy = small.flags
        if not small.nums:
            return small if fy[0] else big  # the whole line, or nothing
        if big.den == small.den:
            xs, ys, den = big.nums, small.nums, big.den
        else:
            xs, ys, den = big._aligned(small)
        fx = big.flags
        lo = 0 if fy[0] else bisect_left(xs, ys[0])
        hi = len(xs) if fy[-1] else bisect_right(xs, ys[-1], lo)
        coords, flags = _merge(xs[lo:hi], fx[2 * lo:2 * hi + 1], ys, fy, or_)
        return _stored(xs[:lo] + tuple(coords) + xs[hi:],
                       den, fx[:2 * lo] + tuple(flags) + fx[2 * hi + 1:])

    def intersect(self, other: "PolyhedralSet1D") -> "PolyhedralSet1D":
        return self._binary(other, and_)

    def difference(self, other: "PolyhedralSet1D") -> "PolyhedralSet1D":
        return self._binary(other, gt)  # on flags, a > b is a and not b

    def complement(self) -> "PolyhedralSet1D":
        return _from_cells(self.nums, self.den, tuple(map(not_, self.flags)))

    __or__ = union
    __and__ = intersect
    __sub__ = difference
    __invert__ = complement

    # -- queries -----------------------------------------------------

    def _cut(self, q) -> tuple[int, bool]:
        """How many coordinates are at most the exact number q, and whether
        the last of them is q: a bisect on floor(q * den), exact in ints."""
        nums, den = self.nums, self.den
        if den:
            p, r = q.as_integer_ratio()
            q, rest = divmod(p * den, r)  # q * den, or its floor
            if rest:
                return bisect_right(nums, q), False
        i = bisect_right(nums, q)
        return i, i > 0 and nums[i - 1] == q

    def euler_measure(self) -> int:
        return sum(self.flags[1::2]) - sum(self.flags[0::2])

    def contains(self, value) -> bool:
        i, on = self._cut(as_fraction(value))
        return self.flags[2 * i - 1] if on else self.flags[2 * i]

    def classify(self) -> Classification:
        coords, flags = self.coords, self.flags
        components = tuple(_run_descriptor(coords, a, b) for a, b in _runs(flags))
        finite = not any(flags[0::2])
        cardinality = sum(flags[1::2]) if finite else None
        compact = all(c.bounded and c.closed for c in components)
        isolated = any(c.is_point for c in components)
        return Classification(finite, cardinality, compact, components, isolated)

    def restrict_open(self, lower, upper) -> "PolyhedralSet1D":
        """Intersect with the open interval (lower, upper).

        Two bisects find the coordinates strictly inside the window, and
        the cells from the gap just above lower to the gap just below
        upper are kept as they are.  A finite window end becomes a
        coordinate, outside the set, only where the set reaches it from
        inside; the window is then rescaled to a den that the end's
        denominator divides: O(log n + cells in the window).
        """
        lo, hi = ext(lower), ext(upper)
        if not lo < hi:
            raise InputError(f"empty restriction window: {lo} >= {hi}")
        nums, flags, den = self.nums, self.flags, self.den
        i = self._cut(lo.value)[0] if lo.is_finite else 0
        j = len(nums)
        if hi.is_finite:
            j, on = self._cut(hi.value)
            j -= on
        inner, cells = nums[i:j], flags[2 * i:2 * j + 1]
        below = lo.is_finite and cells[0]
        above = hi.is_finite and cells[-1]
        if below or above:
            wide = _wider(den, lo.value.denominator if below else 1,
                          hi.value.denominator if above else 1)
            inner = _rescaled(inner, den, wide)
            if below:
                inner, cells = (_over(lo.value, wide),) + inner, (False, False) + cells
            if above:
                inner, cells = inner + (_over(hi.value, wide),), cells + (False, False)
            den = wide
        return _stored(inner, den, cells)

    def shift(self, delta) -> "PolyhedralSet1D":
        """Translate by a fixed rational; canonical form is preserved, and
        the numerators move to the lcm of den and delta's denominator."""
        d = as_fraction(delta)
        wide = _wider(self.den, d.denominator)
        step = _over(d, wide)
        return _stored(tuple([x + step for x in _rescaled(self.nums, self.den, wide)]),
                       wide, self.flags)

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

    This is constructor sugar only: a closed end is a point cell in the
    set, so ``segment(0, 1, True, True)`` is ``{0} u (0,1) u {1}``.
    Closed ends must be finite.  Once those checks pass the cells are
    canonical as they stand: a finite end has the open interval on one
    side and nothing on the other.
    """
    lo, hi = ext(lower), ext(upper)
    if not lo < hi:
        raise InputError(f"malformed interval: {lo} >= {hi}")
    if include_lower and not lo.is_finite:
        raise InputError("cannot close an interval at -inf")
    if include_upper and not hi.is_finite:
        raise InputError("cannot close an interval at inf")
    nums, den = _scaled([bound.value for bound in (lo, hi) if bound.is_finite])
    return _segment_cells(nums[0] if lo.is_finite else None, nums[-1] if hi.is_finite else None,
                          bool(include_lower), bool(include_upper), den)


def _segment_cells(lower, upper, include_lower: bool, include_upper: bool,
                   den: int = 1) -> PolyhedralSet1D:
    """The cells of an interval literal whose checks have passed: lower <
    upper, None for an infinite end, which adds no coordinate, and a closed
    end only where it is finite; the ends are numerators over den, the
    least common denominator of the literal.  The parser writes its
    literals here too, over den 1 (see ``setparse``)."""
    if lower is None:
        if upper is None:
            return _from_cells((), 1, (True,))
        return _from_cells((upper,), den, (True, include_upper, False))
    if upper is None:
        return _from_cells((lower,), den, (False, include_lower, True))
    return _from_cells((lower, upper), den, (False, include_lower, True, include_upper, False))
