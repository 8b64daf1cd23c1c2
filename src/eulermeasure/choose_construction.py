"""Subset selection from a 1-D set, realized as explicit open cells.

The set of increasing k-tuples drawn from a canonical set A splits into
strata indexed by how many of the k points land in each piece of A
(at most one per point piece, any number per open interval).  c ordered
points inside one open interval form an open c-simplex, so a stratum is
a single open cell whose dimension is the number of interval-placed
points.  Summing (-1)^dim over the strata gives the measure of the
whole selection set, which equals binom(chi(A), k).  cell_counts counts
the cells of each dimension (compositions, Stanley, EC1 section 1.2);
choose_cells lists them, the oracle the verify suite holds it against,
within the enumeration ceiling of limits.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .errors import InputError
from .interval_sets import OpenInterval, Point, PolyhedralSet1D
from .limits import check_enumeration
from .partition_combinatorics import mobius_by_sizes, partition_types


@dataclass(frozen=True)
class CellSketch:
    """Formal disjoint union of open cells, recorded by dimension.

    ``provenance`` optionally keeps, for each cell, the per-piece point
    counts that produced it.
    """

    dimensions: tuple[int, ...]
    provenance: tuple[tuple[int, ...], ...] | None = None

    @property
    def measure(self) -> int:
        return sum(-1 if d % 2 else 1 for d in self.dimensions)

    def dimension_counts(self) -> dict[int, int]:
        return dict(Counter(self.dimensions))


@dataclass(frozen=True)
class PlacementDescriptor:
    """Per-piece point counts of one k-point selection.

    Point pieces carry 0 or 1 (whether that point is selected); open
    intervals carry how many selected points lie inside.
    """

    counts: tuple[int, ...]

    def interval_points(self, pieces) -> int:
        return sum(
            c for c, piece in zip(self.counts, pieces) if isinstance(piece, OpenInterval)
        )


def enumerate_placements(P: PolyhedralSet1D, k: int) -> Iterator[PlacementDescriptor]:
    """All ways to split k points over the pieces, 0/1 on point pieces.

    They are the cells cell_counts(P, k) counts, each one count per piece;
    that many entries are checked against the enumeration ceiling before
    the first placement is built.  They come in lexicographic order of
    their counts, without recursion, so any number of pieces is walked.
    """
    pieces = P.pieces
    check_enumeration(
        sum(cell_counts(P, k).values()) * len(pieces),
        f"the placements of {k} points on {len(pieces)} pieces "
        "(cell_counts and parity_polynomial count them)",
    )
    return _count_tuples([1 if isinstance(piece, Point) else k for piece in pieces], k)


def _count_tuples(caps: list[int], k: int) -> Iterator[PlacementDescriptor]:
    """The tuples of counts, each at most its cap, that sum to k, in
    lexicographic order.  The least one with a given prefix puts as much as
    fits as far right as it can; each next one raises the rightmost count
    that has room and some count to its right, and refills the rest."""

    def fill(start: int, remaining: int) -> bool:
        for i in range(len(caps) - 1, start - 1, -1):
            counts[i] = min(caps[i], remaining)
            remaining -= counts[i]
        return remaining == 0

    counts = [0] * len(caps)
    if not fill(0, k):
        return
    while True:
        yield PlacementDescriptor(tuple(counts))
        right = 0  # the counts right of i
        for i in range(len(caps) - 1, -1, -1):
            if right and counts[i] < caps[i]:
                break
            right += counts[i]
        else:
            return
        counts[i] += 1
        fill(i + 1, right - 1)


def choose_cells(A: PolyhedralSet1D, k: int) -> CellSketch:
    """Stratify the k-element selections from A into open cells, one per
    placement (enumerate_placements checks their number first)."""
    cells = sorted(
        (placement.interval_points(A.pieces), placement.counts)
        for placement in enumerate_placements(A, k)
    )
    return CellSketch(
        tuple(dim for dim, _ in cells), tuple(counts for _, counts in cells)
    )


def cell_counts(A: PolyhedralSet1D, k: int) -> dict[int, int]:
    """choose_cells(A, k).dimension_counts() without listing a cell: a d-cell
    takes k - d of the p point pieces and spreads d points over the m open
    pieces (intervals and rays), binom(p, k - d) * binom(m + d - 1, d) ways."""
    if k < 0:
        raise InputError(f"k must be at least 0, got {k}")
    p = sum(isinstance(piece, Point) for piece in A.pieces)
    m = len(A.pieces) - p
    return {
        d: math.comb(p, k - d) * (math.comb(m + d - 1, d) if m else 1)
        for d in range(max(k - p, 0), (k if m else 0) + 1)
    }


def ordered_distinct_measure(A: PolyhedralSet1D, k: int) -> int:
    """Measure of the set of k-tuples of pairwise-distinct points of A.

    Computed by Mobius inversion over the partition lattice:
    sum over pi of mu(0, pi) * chi(A)^(number of blocks).  Both factors
    depend only on the block sizes of pi, so the sum runs over integer
    partitions of k, each weighted by its number of set partitions
    (partition_types, which checks their number first).
    """
    chi = A.euler_measure()
    return sum(
        ways * mobius_by_sizes(sizes) * chi ** len(sizes)
        for sizes, ways in partition_types(k)
    )
