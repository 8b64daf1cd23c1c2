"""Scaling of the set front end: parse_set_expression on long expressions.

Times parse_set_expression, best of REPEATS, on seven kinds of expression
of n literals each:

- ``plain``: one chain joined by 'u' and '|', on integers;
- ``combined``: four sub-chains of near-equal length (one per literal
  under four literals), some complemented
  with '!', joined by '&', '\\' and 'u' and fully parenthesized;
- ``fractional``: a plain chain on a grid scaled by 7, as the ``sets``
  workload draws it with scale 7: every number is i/7 in lowest terms;
- ``coprime``: a plain chain whose k-th literal writes its numbers over
  the k-th prime, as i + 1/p, so the common denominator of the chain is
  the product of its first n primes;
- ``long``: a plain chain on integers but for its first three literals,
  written over three pairwise coprime denominators of LONG_BITS bits
  each, so every integer is scaled by a common denominator of about
  3 * LONG_BITS bits if the parser scales at all;
- ``refused``: the ``plain`` chain with an unexpected character after its
  last literal, timed until its ParseError; its rows give 0 result
  pieces;
- ``malformed``: the ``plain`` chain with its last literal replaced by
  ``(5,2)``, timed until its ParseError, so the literal tokens read the
  whole chain before the character tokens read it again for the error;
  its rows give 0 result pieces.

The literals lie at random places on a grid with as many unit cells as
there are literals, so they touch and overlap: 15 % point sets, 4 % rays
of each side, and open, closed and half-open intervals.  Each (kind, n)
has its own fixed seed.  Every kind but ``combined`` and the two refused
ones is checked against from_pieces of all its pieces.  Each row gives the bits
of the expression's common denominator and the peak memory tracemalloc
sees during one parse.  --src picks the checkout whose library is timed,
so one run per checkout compares two versions.  Prints one JSON object.

    python3 tools/sets_scaling.py                        # 50 to 800 literals
    python3 tools/sets_scaling.py --src ../parent/src    # another checkout
    python3 tools/sets_scaling.py --sizes 8,16           # other sizes
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import count, islice
from pathlib import Path

KINDS = ("plain", "combined", "fractional", "coprime", "long", "refused", "malformed")
REFUSED = ("refused", "malformed")
SIZES = (50, 100, 200, 400, 800)
REPEATS = 5
GROUPS = 4
SCALE = 7  # the largest grid scale the sets workload draws
LONG_BITS = 14_000  # under the interpreter's limit of 4300 digits per integer


def primes():
    """2, 3, 5, 7, ... by trial division, enough for a few thousand literals."""
    found = []
    for n in count(2):
        if all(n % p for p in found if p * p <= n):
            found.append(n)
            yield n


def literal(rng: random.Random, grid: int, number) -> str:
    """One literal; number(i) writes grid index i."""
    roll = rng.random()
    if roll < 0.15:
        return "{%s}" % ", ".join(number(rng.randint(0, grid)) for _ in range(rng.randint(1, 3)))
    if roll < 0.19:
        return f"(-inf,{number(rng.randint(0, 2))})"
    if roll < 0.23:
        return f"({number(grid - rng.randint(0, 2))},inf)"
    lo = rng.randint(0, grid - 1)
    hi = min(grid, lo + rng.randint(1, 3))
    return f"{rng.choice('([')}{number(lo)},{number(hi)}{rng.choice(')]')}"


def chain(rng: random.Random, grid: int, n: int, writer=lambda k: str) -> str:
    """n literals joined by 'u' and '|'; writer(k) writes the numbers of the k-th."""
    return "".join((rng.choice((" u ", " | ")) if k else "") + literal(rng, grid, writer(k))
                   for k in range(n))


def over(q: int):
    """Writes grid index i as i + 1/q."""
    return lambda i: f"{i * q + 1}/{q}"


def expression(kind: str, n: int) -> str:
    if kind == "refused":
        return expression("plain", n) + " x"
    if kind == "malformed":
        plain = expression("plain", n)
        last = max(plain.rfind(" u "), plain.rfind(" | "))  # -1 for one literal
        return plain[:last + 3 if last >= 0 else 0] + "(5,2)"
    rng = random.Random(f"{kind}:{n}")
    if kind == "plain":
        return chain(rng, n, n)
    if kind == "fractional":
        return chain(rng, n, n, lambda k: lambda i: str(Fraction(i, SCALE)))
    if kind == "coprime":
        denominators = list(islice(primes(), n))
        return chain(rng, n, n, lambda k: over(denominators[k]))
    if kind == "long":
        odd = 2 ** LONG_BITS + 1  # odd, so it, odd + 1 and odd + 2 are pairwise coprime
        return chain(rng, n, n, lambda k: over(odd + k) if k < 3 else str)
    groups = min(GROUPS, n)  # no empty sub-chain under GROUPS literals
    sizes = [n // groups + (1 if i < n % groups else 0) for i in range(groups)]
    operands = [("!" if rng.random() < 0.3 else "") + f"({chain(rng, n, size)})" for size in sizes]
    while len(operands) > 1:
        i = rng.randrange(len(operands) - 1)
        op = rng.choice(("&", "&", "\\", "\\", "u"))
        operands[i:i + 2] = [f"({operands[i]} {op} {operands[i + 1]})"]
    return operands[0]


def denominator_bits(text: str) -> int:
    """Bits of the lcm of the denominators written in text."""
    return math.lcm(1, *map(int, re.findall(r"/([0-9]+)", text))).bit_length()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from eulermeasure.errors import ParseError
    from eulermeasure.interval_sets import PolyhedralSet1D
    from eulermeasure.setparse import parse_set_expression

    def parse(text):
        """The parsed set, or None when the text is refused."""
        try:
            return parse_set_expression(text)
        except ParseError:
            return None

    rows = []
    for kind in KINDS:
        for n in map(int, args.sizes.split(",")):
            text = expression(kind, n)
            result = parse(text)
            assert (result is None) == (kind in REFUSED), text
            if kind != "combined" and kind not in REFUSED:
                literals = text.replace(" | ", " u ").split(" u ")
                pieces = [p for lit in literals for p in parse_set_expression(lit).pieces]
                assert result == PolyhedralSet1D.from_pieces(pieces), text
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                parse(text)
                best = min(best, time.perf_counter() - start)
            ms = best * 1000
            tracemalloc.start()
            parse(text)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            rows.append({"kind": kind, "literals": n, "denominator_bits": denominator_bits(text),
                         "result_pieces": 0 if result is None else len(result.pieces),
                         "parse_ms": round(ms, 3), "ms_per_literal": round(ms / n, 4),
                         "peak_kib": round(peak / 1024)})
            print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    print(json.dumps({"repeats": REPEATS, "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
