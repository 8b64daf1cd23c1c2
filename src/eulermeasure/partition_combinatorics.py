"""Set partitions, their Mobius values, and generalized binomials.

The partition lattice on {1..k} enters through the bottom-to-pi Mobius
values mu(0,pi) = prod over blocks B of (-1)^(|B|-1) (|B|-1)!, which
turn counts of tuples with repeats into counts of tuples of distinct
entries.  Generalized binomial coefficients interpret binom(x, k) as
the degree-k polynomial x(x-1)...(x-k+1)/k! at any rational x.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import InputError
from .limits import check_enumeration
from .rationals import as_fraction


@dataclass(frozen=True)
class SetPartition:
    """Partition of {1..k} into disjoint blocks, sorted by least element.

    The block count is stored because it is the quantity the Mobius
    identity exponentiates in its hot loop.
    """

    blocks: tuple[tuple[int, ...], ...]
    block_count: int = -1

    def __post_init__(self):
        blocks = tuple(tuple(sorted(b)) for b in self.blocks)
        blocks = tuple(sorted(blocks, key=lambda b: b[0] if b else 0))
        seen: set[int] = set()
        for block in blocks:
            if not block:
                raise InputError("empty block in set partition")
            for el in block:
                if el in seen:
                    raise InputError(f"element {el} appears in two blocks")
                seen.add(el)
        k = len(seen)
        if seen != set(range(1, k + 1)):
            raise InputError("blocks must cover {1..k} exactly")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "block_count", len(blocks))

    @classmethod
    def _canonical(cls, blocks: tuple[tuple[int, ...], ...]) -> "SetPartition":
        """Wrap blocks that are already sorted and valid, skipping the checks."""
        pi = object.__new__(cls)
        object.__setattr__(pi, "blocks", blocks)
        object.__setattr__(pi, "block_count", len(blocks))
        return pi

    @property
    def ground_size(self) -> int:
        return sum(len(b) for b in self.blocks)


def _bell_numbers() -> Iterator[int]:
    """Bell(0), Bell(1), ..: the first entries of the rows of the Bell triangle."""
    row = [1]
    while True:
        yield row[0]
        row = list(itertools.accumulate(row, initial=row[-1]))


def _partition_numbers() -> Iterator[int]:
    """p(0), p(1), .. by Euler's pentagonal number theorem:
    p(n) = sum_{j >= 1} (-1)^(j+1) (p(n - j(3j-1)/2) + p(n - j(3j+1)/2))."""
    p = [1]
    while True:
        yield p[-1]
        n, total, j = len(p), 0, 1
        while j * (3 * j - 1) // 2 <= n:
            for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if g <= n:
                    total += p[n - g] if j % 2 else -p[n - g]
            j += 1
        p.append(total)


def _check_partitions(k: int, counts: Iterator[int], what: str) -> None:
    """Refuse k < 0, and the k * c(k) entries of an enumeration of c(k)
    partitions of k above the enumeration ceiling.  The counts c(0), c(1), ..
    never decrease, so k * c(n) is checked for each n <= k in turn: a large
    k is refused after a few dozen counts."""
    if k < 0:
        raise InputError(f"k must be at least 0, got {k}")
    for count in itertools.islice(counts, k + 1):
        check_enumeration(k * count, what)


def partitions_of(k: int) -> list[SetPartition]:
    """All set partitions of {1..k}, via restricted-growth strings; the
    Bell(k) partitions of k entries each are checked against the
    enumeration ceiling first."""
    _check_partitions(k, _bell_numbers(),
                      f"the set partitions of {k} elements (falling_factorial is their Mobius sum)")
    if k == 0:
        return [SetPartition(())]
    out: list[SetPartition] = []
    rgs = [0] * k

    def emit():
        # Elements go in ascending, and block b opens before block b+1, so
        # the blocks come out sorted and by least element: canonical.
        nblocks = max(rgs) + 1
        blocks: list[list[int]] = [[] for _ in range(nblocks)]
        for i, b in enumerate(rgs):
            blocks[b].append(i + 1)
        out.append(SetPartition._canonical(tuple(tuple(b) for b in blocks)))

    def descend(i: int, mx: int):
        if i == k:
            emit()
            return
        for v in range(mx + 2):
            rgs[i] = v
            descend(i + 1, max(mx, v))

    descend(1, 0)
    return out


def partition_types(k: int) -> list[tuple[tuple[int, ...], int]]:
    """The block sizes of the set partitions of {1..k}, grouped by type.

    Each integer partition sizes of k comes with the number of set
    partitions whose blocks have exactly those sizes,
    k! / (prod size! * prod multiplicity!).  The p(k) integer partitions
    of k entries each are checked against the enumeration ceiling first.
    """
    _check_partitions(k, _partition_numbers(),
                      f"the integer partitions of {k} (falling_factorial is their weighted sum)")
    out: list[tuple[tuple[int, ...], int]] = []

    def descend(remaining: int, largest: int, sizes: list[int]):
        if remaining == 0:
            ways = math.prod(math.factorial(s) for s in sizes) * math.prod(
                math.factorial(sizes.count(s)) for s in set(sizes)
            )
            out.append((tuple(sizes), math.factorial(k) // ways))
            return
        for size in range(min(remaining, largest), 0, -1):
            sizes.append(size)
            descend(remaining - size, size, sizes)
            sizes.pop()

    descend(k, k, [])
    return out


def mobius_by_sizes(sizes) -> int:
    """mu(0, pi) for a partition with the given block sizes:
    prod (-1)^(size-1) (size-1)!."""
    value = 1
    for size in sizes:
        value *= (-1) ** (size - 1) * math.factorial(size - 1)
    return value


def mobius_bottom(pi: SetPartition) -> int:
    """mu(0, pi) in the partition lattice: prod (-1)^(|B|-1) (|B|-1)!."""
    return mobius_by_sizes(map(len, pi.blocks))


def falling_factorial(x, k: int) -> Fraction:
    """x (x-1) ... (x-k+1) at an arbitrary rational x = p/q, over the
    integers: prod_{i<k} (p - i q) over q^k, one Fraction at the end."""
    if k < 0:
        raise InputError(f"k must be at least 0, got {k}")
    x = as_fraction(x)
    p, q = x.numerator, x.denominator
    return Fraction(math.prod(p - i * q for i in range(k)), q ** k)


def gen_binomial(x, k: int) -> Fraction:
    """binom(x, k) as a polynomial in x, evaluated exactly."""
    return falling_factorial(x, k) / math.factorial(k)


def integer_binomial(n: int, k: int) -> int:
    """gen_binomial(n, k) at an integer n, in integer arithmetic:
    binom(n, k) = (-1)^k binom(k - n - 1, k) when n < 0."""
    if k < 0:
        raise InputError(f"k must be at least 0, got {k}")
    return math.comb(n, k) if n >= 0 else (-1) ** k * math.comb(k - n - 1, k)


def iterated_binomial(x, ks: Sequence[int]) -> Fraction:
    """Left fold of gen_binomial over ks, starting from x itself."""
    value = as_fraction(x)
    for k in ks:
        if k < 0:
            raise InputError(f"selection sizes must be at least 0, got {k}")
        value = gen_binomial(value, k)
    return value
