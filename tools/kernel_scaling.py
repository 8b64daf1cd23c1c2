"""Scaling of the set kernel: its constructor and operations on long sets.

Times, best of REPEATS, ``from_pieces``, ``|``, ``&``, ``-`` and
``restrict_open`` on two sets of n pieces each, built from the same kind
of coordinates:

- ``den1``, ``den2``, ``den7``: every coordinate on a grid of integers,
  halves or sevenths;
- ``mixed``: the k-th piece over the k-th of eight small pairwise coprime
  primes, so the common denominator of a set is their product (27 bits);
- ``wide``: every piece over its own prime above 2^60, so the common
  denominator passes ``interval_sets.MAX_SCALE_BITS`` and the sets keep
  their coordinates as Fractions.

The pieces lie at random places on a grid with as many cells as pieces,
so they touch and overlap: 30 % points, the rest open intervals one to
three cells long.  ``restrict_open`` cuts the union to the middle half of
the grid, at ends a third of a cell off the grid, so both ends become
coordinates over a wider denominator.  Each (kind, n) has its own fixed
seed, and each row gives the bits of the union's common denominator and
the number of its coordinates.  --src picks the checkout whose library is
timed, so one run per checkout compares two versions.  Prints one JSON
object.

    python3 tools/kernel_scaling.py                        # 50 to 800 pieces
    python3 tools/kernel_scaling.py --src ../parent/src    # another checkout
    python3 tools/kernel_scaling.py --sizes 8,16           # other sizes
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

KINDS = ("den1", "den2", "den7", "mixed", "wide")
SIZES = (50, 100, 200, 400, 800)
REPEATS = 5
SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases, exact below 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def wide_primes(count: int) -> list[int]:
    """The first count primes above 2^60."""
    found, n = [], 2 ** 60 + 1
    while len(found) < count:
        if is_prime(n):
            found.append(n)
        n += 2
    return found


def raw_pieces(interval_sets, rng: random.Random, n: int, denominator) -> list:
    """n points and open intervals; denominator(k) is the k-th piece's."""
    pieces = []
    for k in range(n):
        q = denominator(k)
        lo = rng.randrange(0, n * q)
        if rng.random() < 0.3:
            pieces.append(interval_sets.Point(Fraction(lo, q)))
        else:
            hi = lo + rng.randint(1, 3) * q
            pieces.append(interval_sets.OpenInterval(
                interval_sets.ext(Fraction(lo, q)), interval_sets.ext(Fraction(hi, q))))
    return pieces


def denominators(kind: str, n: int):
    if kind == "mixed":
        return lambda k: SMALL_PRIMES[k % len(SMALL_PRIMES)]
    if kind == "wide":
        primes = wide_primes(2 * n)
        return lambda k: primes[k]
    q = int(kind[3:])
    return lambda k: q


def best_ms(work) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return round(best * 1000, 4)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from eulermeasure import interval_sets

    build = interval_sets.PolyhedralSet1D.from_pieces
    rows = []
    for kind in KINDS:
        for n in map(int, args.sizes.split(",")):
            rng = random.Random(f"{kind}:{n}")
            denominator = denominators(kind, n)
            raw_a = raw_pieces(interval_sets, rng, n, denominator)
            raw_b = raw_pieces(interval_sets, rng, n, lambda k: denominator(k + n))
            a, b = build(raw_a), build(raw_b)
            union = a | b
            scale = denominator(0)
            # n/4 and 3n/4 plus a third of a cell: off the grid
            lower = Fraction(3 * n * scale + 4, 12 * scale)
            upper = Fraction(9 * n * scale + 4, 12 * scale)
            row = {"kind": kind, "pieces": n,
                   "denominator_bits": math.lcm(*(x.denominator for x in union.coords)).bit_length(),
                   "union_coordinates": len(union.coords),
                   "from_pieces_ms": best_ms(lambda: build(raw_a)),
                   "union_ms": best_ms(lambda: a | b),
                   "intersect_ms": best_ms(lambda: a & b),
                   "difference_ms": best_ms(lambda: a - b),
                   "restrict_open_ms": best_ms(lambda: union.restrict_open(lower, upper))}
            rows.append(row)
            print(json.dumps(row), file=sys.stderr, flush=True)
    print(json.dumps({"repeats": REPEATS, "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
