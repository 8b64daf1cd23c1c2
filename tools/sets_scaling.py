"""Scaling of the set front end: parse_set_expression on long expressions.

Times parse_set_expression, best of REPEATS, on two kinds of expression
of n literals each:

- ``plain``: one chain joined by 'u' and '|';
- ``combined``: four sub-chains of near-equal length, some complemented
  with '!', joined by '&', '\\' and 'u' and fully parenthesized.

The literals lie at random places on a grid with as many unit cells as
there are literals, so they touch and overlap: 15 % point sets, 4 % rays
of each side, and open, closed and half-open intervals.  Each (kind, n)
has its own fixed seed.  A plain chain is checked against from_pieces of
all its pieces.  --src picks the checkout whose library is timed, so one
run per checkout compares two versions.  Prints one JSON object.

    python3 tools/sets_scaling.py                      # 50 to 800 literals
    python3 tools/sets_scaling.py --src ../parent/src  # another checkout
    python3 tools/sets_scaling.py --sizes 8,16         # other sizes
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

KINDS = ("plain", "combined")
SIZES = (50, 100, 200, 400, 800)
REPEATS = 5
GROUPS = 4


def literal(rng: random.Random, grid: int) -> str:
    roll = rng.random()
    if roll < 0.15:
        return "{%s}" % ", ".join(str(rng.randint(0, grid)) for _ in range(rng.randint(1, 3)))
    if roll < 0.19:
        return f"(-inf,{rng.randint(0, 2)})"
    if roll < 0.23:
        return f"({grid - rng.randint(0, 2)},inf)"
    lo = rng.randint(0, grid - 1)
    hi = min(grid, lo + rng.randint(1, 3))
    return f"{rng.choice('([')}{lo},{hi}{rng.choice(')]')}"


def chain(rng: random.Random, grid: int, n: int) -> str:
    return "".join((rng.choice((" u ", " | ")) if i else "") + literal(rng, grid) for i in range(n))


def expression(kind: str, n: int) -> str:
    rng = random.Random(f"{kind}:{n}")
    if kind == "plain":
        return chain(rng, n, n)
    sizes = [n // GROUPS + (1 if i < n % GROUPS else 0) for i in range(GROUPS)]
    operands = [("!" if rng.random() < 0.3 else "") + f"({chain(rng, n, size)})" for size in sizes]
    while len(operands) > 1:
        i = rng.randrange(len(operands) - 1)
        op = rng.choice(("&", "&", "\\", "\\", "u"))
        operands[i:i + 2] = [f"({operands[i]} {op} {operands[i + 1]})"]
    return operands[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from eulermeasure.interval_sets import PolyhedralSet1D
    from eulermeasure.setparse import parse_set_expression

    rows = []
    for kind in KINDS:
        for n in map(int, args.sizes.split(",")):
            text = expression(kind, n)
            result = parse_set_expression(text)
            if kind == "plain":
                literals = text.replace(" | ", " u ").split(" u ")
                pieces = [p for lit in literals for p in parse_set_expression(lit).pieces]
                assert result == PolyhedralSet1D.from_pieces(pieces), text
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                parse_set_expression(text)
                best = min(best, time.perf_counter() - start)
            ms = best * 1000
            rows.append({"kind": kind, "literals": n, "result_pieces": len(result.pieces),
                         "parse_ms": round(ms, 3), "ms_per_literal": round(ms / n, 4)})
            print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    print(json.dumps({"repeats": REPEATS, "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
