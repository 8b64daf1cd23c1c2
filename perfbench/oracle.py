"""Independent oracle for every answer the benchmark checks.

Uses only ``fractions`` and ``math``: nothing here imports the program.

Sets live on an integer grid 0..G.  The line splits into elementary
cells, numbered left to right::

    0        the ray (-inf, 0)
    2i + 1   the point i
    2i + 2   the open cell (i, i+1), for i < G
    2G + 2   the ray (G, +inf)

A set is a bitmask over these cells, so union, intersection, difference
and complement are bitwise operations, and chi = sum of (-1)^dim over
the covered cells (odd cells are points, even cells are 1-cells).  The
grid index i stands for the rational (i + shift) / scale when the set is
written out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class OracleMismatch(Exception):
    """The program's answer disagrees with the oracle."""


# -- cell model --------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    size: int  # G: grid indices run 0..G
    shift: int = 0
    scale: int = 1

    @property
    def cells(self) -> int:
        return 2 * self.size + 3

    @property
    def full(self) -> int:
        return (1 << self.cells) - 1

    def value(self, i: int) -> Fraction:
        return Fraction(i + self.shift, self.scale)

    def span(self, first: int, last: int) -> int:
        """Mask of the cells first..last inclusive."""
        return ((1 << (last - first + 1)) - 1) << first

    def interval(self, lo: int | None, hi: int | None, closed_lo: bool, closed_hi: bool) -> int:
        """Cells of an interval literal; None is an infinite end (never closed)."""
        first = 0 if lo is None else 2 * lo + (1 if closed_lo else 2)
        last = 2 * self.size + 2 if hi is None else 2 * hi + (1 if closed_hi else 0)
        return self.span(first, last)

    def points(self, indices) -> int:
        mask = 0
        for i in indices:
            mask |= 1 << (2 * i + 1)
        return mask


def chi(mask: int) -> int:
    """Sum of (-1)^dim over covered cells: points (odd) +1, 1-cells (even) -1."""
    bits = bin(mask)[:1:-1]  # bits[c] is cell c
    return bits[1::2].count("1") - bits[0::2].count("1")


def runs(mask: int) -> list[tuple[int, int]]:
    """Maximal runs of covered cells, as (first, last) cell numbers."""
    out = []
    cell = 0
    while mask >> cell:
        if (mask >> cell) & 1:
            start = cell
            while (mask >> cell) & 1:
                cell += 1
            out.append((start, cell - 1))
        else:
            cell += 1
    return out


def _bound(grid: Grid, cell: int, lower: bool) -> str:
    """Printed coordinate of an interval end that sits on the 1-cell ``cell``."""
    if lower:
        return "-inf" if cell == 0 else str(grid.value(cell // 2 - 1))
    return "inf" if cell == 2 * grid.size + 2 else str(grid.value(cell // 2))


def canonical_text(grid: Grid, mask: int) -> str:
    """The program's canonical rendering: sorted disjoint pieces joined by ' u '."""
    pieces = []
    for first, last in runs(mask):
        if first == last and first % 2:
            pieces.append("{%s}" % grid.value(first // 2))
            continue
        if first % 2:
            lo = str(grid.value(first // 2))
            pieces.append("{%s}" % lo)
        else:
            lo = _bound(grid, first, lower=True)
        hi = str(grid.value(last // 2)) if last % 2 else _bound(grid, last, lower=False)
        pieces.append(f"({lo},{hi})")
        if last % 2:
            pieces.append("{%s}" % hi)
    return " u ".join(pieces) if pieces else "{}"


def classification(grid: Grid, mask: int) -> dict:
    """The `classification` object of the `measure` report."""
    components = runs(mask)
    finite = all(first == last and first % 2 for first, last in components)
    return {
        "finite": finite,
        "cardinality": len(components) if finite else None,
        "compact": all(first % 2 and last % 2 for first, last in components),
        "components": len(components),
        "has_isolated_points": any(first == last and first % 2 for first, last in components),
    }


# -- PAPER identities --------------------------------------------------


def falling(x: Fraction, k: int) -> Fraction:
    value = Fraction(1)
    for i in range(k):
        value *= x - i
    return value


def binom(x, k: int) -> Fraction:
    return falling(Fraction(x), k) / math.factorial(k)


def iterated_binom(x, ks) -> Fraction:
    value = Fraction(x)
    for k in ks:
        value = binom(value, k)
    return value


def power_of_two(chi_value: int) -> Fraction:
    return Fraction(2) ** chi_value


def gizmo_value(chi_value: int, ks) -> Fraction:
    """Theorem 1: the gizmo measure is the iterated binomial of 2^chi."""
    return iterated_binom(power_of_two(chi_value), ks)


def hedral_value(bsize: int, chi_domain: int) -> Fraction:
    return Fraction(bsize) ** chi_domain


def schanuel_value(chi_codomain: int) -> Fraction:
    return Fraction(0) if chi_codomain == 0 else Fraction(1, chi_codomain)


def map_pair_value(bsize: int) -> Fraction:
    """Distinct unordered map pairs into a b-point set: binom(1/b, 2)."""
    return binom(Fraction(1, bsize), 2)


def fibonacci(n: int) -> int:
    """F(n) for every integer n, with F(-n) = (-1)^(n+1) F(n)."""
    a, b = 0, 1
    for _ in range(abs(n)):
        a, b = b, a + b
    return a if n >= 0 or n % 2 else -a


def check(condition: bool, message: str):
    if not condition:
        raise OracleMismatch(message)


def self_test():
    """The oracle reproduces the PAPER headline values; raises on a mismatch."""
    g = Grid(6)
    two_intervals = g.interval(0, 1, False, False) | g.interval(2, 3, False, False)
    check(chi(two_intervals) == -2, "chi((0,1) u (2,3)) != -2")
    check(binom(chi(two_intervals), 3) == -4, "binom(-2,3) != -4")
    check(power_of_two(-1) == Fraction(1, 2), "2^chi((0,1)) != 1/2")
    check(gizmo_value(-1, (2,)) == Fraction(-1, 8), "binom(1/2,2) != -1/8")
    check(gizmo_value(-1, (2, 2)) == Fraction(9, 128), "C(1/2;2,2) != 9/128")
    check(map_pair_value(2) == Fraction(-1, 8), "binom(1/2,2) != -1/8 for map pairs")
    check(hedral_value(2, -1) == Fraction(1, 2), "2^-1 != 1/2 for maps (0,1)->{0,1}")
    check(schanuel_value(0) == 0 and schanuel_value(-2) == Fraction(-1, 2), "1/chi(B) rule")
    check([fibonacci(n) for n in range(-6, 7)]
          == [-8, 5, -3, 2, -1, 1, 0, 1, 1, 2, 3, 5, 8], "extended Fibonacci")
    check(fibonacci(2 + 1) == 2, "fib({0,1}) != F(3) = 2")
    closed = g.interval(0, 1, True, True)
    check(chi(closed) == 1 and canonical_text(g, closed) == "{0} u (0,1) u {1}",
          "closed interval cells")
    merged = g.interval(0, 1, False, False) | g.points([1]) | g.interval(1, 2, False, False)
    check(canonical_text(g, merged) == "(0,2)" and chi(merged) == -1, "canonical merge")
    half = Grid(6, shift=-2, scale=2)
    check(canonical_text(half, half.full ^ half.interval(None, 3, False, True)) == "(1/2,inf)",
          "complement of (-inf,1/2]")
    check(classification(g, closed)["compact"] and not classification(g, merged)["compact"],
          "compactness")
