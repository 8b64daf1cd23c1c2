"""The Fraction-coordinate kernel of ``eulermeasure.interval_sets``, kept
as a reference for its tests.

The library stores a set as integer numerators over one denominator and
runs its sweeps, merges and bisects on those integers.  The functions
here do the same work on ``Fraction`` coordinates, as the library did
before: a set is a pair ``(coords, flags)`` of sorted distinct Fractions
and one membership bool per elementary cell (see the library's module
docstring).  On every input the two must give the same coordinates,
flags and pieces.

``elementary_cells`` spells the cells of a coordinate list out, and
``cell_in`` tests one cell against every piece, O(n) per cell: the scan
the library's sweeps and merge are tested against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from operator import and_, gt, not_, or_

from eulermeasure.interval_sets import (
    NEG_INF, POS_INF, OpenInterval, Point, _finite, _open, _point, _runs, ext
)
from eulermeasure.rationals import as_fraction

Cells = tuple  # (coords: tuple[Fraction, ...], flags: tuple[bool, ...])
EMPTY: Cells = ((), (False,))
CellList = list  # of ("pt", Fraction) | ("iv", ExtendedRational, ExtendedRational)


def elementary_cells(coords) -> CellList:
    if not coords:
        return [("iv", NEG_INF, POS_INF)]
    cells: CellList = [("iv", NEG_INF, ext(coords[0]))]
    for i, x in enumerate(coords):
        cells.append(("pt", x))
        hi = ext(coords[i + 1]) if i + 1 < len(coords) else POS_INF
        cells.append(("iv", ext(x), hi))
    return cells


def cell_in(pieces, cell) -> bool:
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


def critical_coordinates(piece_lists) -> list[Fraction]:
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


def cell_flags(pieces, coords) -> list[bool]:
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


def merge(xa, fa, xb, fb, keep) -> tuple[list[Fraction], list[bool]]:
    """The canonical cells of ``keep(in a, in b)``, given the cells of a and b."""
    na, nb = len(xa), len(xb)
    coords: list[Fraction] = []
    flags = [keep(fa[0], fb[0])]
    i = j = 0
    while i < na or j < nb:
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
        if not flags[-1] == point == above:
            coords.append(x)
            flags += (point, above)
    return coords, flags


def construct(pieces) -> Cells:
    """The canonical cells of points and open intervals in any order."""
    raw = list(pieces)
    coords = critical_coordinates([raw])
    coords, flags = merge(coords, cell_flags(raw, coords), (), (False,), or_)
    return tuple(coords), tuple(flags)


def binary(a: Cells, b: Cells, keep) -> Cells:
    coords, flags = merge(a[0], a[1], b[0], b[1], keep)
    return tuple(coords), tuple(flags)


def union(a: Cells, b: Cells) -> Cells:
    """Splice the smaller operand into the larger one."""
    big, small = a, b
    if len(big[0]) < len(small[0]):
        big, small = small, big
    ys, fy = small
    if not ys:
        return small if fy[0] else big
    xs, fx = big
    lo = 0 if fy[0] else bisect_left(xs, ys[0])
    hi = len(xs) if fy[-1] else bisect_right(xs, ys[-1], lo)
    coords, flags = merge(xs[lo:hi], fx[2 * lo:2 * hi + 1], ys, fy, or_)
    return xs[:lo] + tuple(coords) + xs[hi:], fx[:2 * lo] + tuple(flags) + fx[2 * hi + 1:]


def intersect(a: Cells, b: Cells) -> Cells:
    return binary(a, b, and_)


def difference(a: Cells, b: Cells) -> Cells:
    return binary(a, b, gt)


def complement(a: Cells) -> Cells:
    return a[0], tuple(map(not_, a[1]))


def contains(a: Cells, value) -> bool:
    q = as_fraction(value)
    coords, flags = a
    i = bisect_left(coords, q)
    if i < len(coords) and coords[i] == q:
        return flags[2 * i + 1]
    return flags[2 * i]


def restrict_open(a: Cells, lower, upper) -> Cells:
    """Intersect with the open interval (lower, upper), lower < upper."""
    lo, hi = ext(lower), ext(upper)
    coords, flags = a
    i = bisect_right(coords, lo.value) if lo.is_finite else 0
    j = bisect_left(coords, hi.value) if hi.is_finite else len(coords)
    inner, cells = coords[i:j], flags[2 * i:2 * j + 1]
    if lo.is_finite and cells[0]:
        inner, cells = (lo.value,) + inner, (False, False) + cells
    if hi.is_finite and cells[-1]:
        inner, cells = inner + (hi.value,), cells + (False, False)
    return inner, cells


def shift(a: Cells, delta) -> Cells:
    d = as_fraction(delta)
    return tuple(x + d for x in a[0]), a[1]


def pieces(a: Cells) -> tuple:
    """The canonical pieces of the runs of member cells."""
    coords, flags = a
    out: list = []
    last = 2 * len(coords)
    for start, stop in _runs(flags):
        if start % 2:
            out.append(_point(coords[start // 2]))
            if start == stop:
                continue
        lower = _finite(coords[(start - 1) // 2]) if start else NEG_INF
        upper = _finite(coords[stop // 2]) if stop < last else POS_INF
        out.append(_open(lower, upper))
        if stop % 2:
            out.append(_point(coords[stop // 2]))
    return tuple(out)

