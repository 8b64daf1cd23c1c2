"""Scaling of exact_series.binomial_prefix with the prefix length.

For each (m, lam) case and each length n, times binomial_prefix(m, lam, n),
best of REPEATS, and checks the last coefficient against binom(m, n) lam^n
from partition_combinatorics.gen_binomial.  --src picks the checkout whose
library is timed, so one run per checkout compares two versions.
Prints one JSON object.

    python3 tools/binomial_prefix_scaling.py                      # this checkout
    python3 tools/binomial_prefix_scaling.py --src ../parent/src  # another one
    python3 tools/binomial_prefix_scaling.py --lengths 12,100     # other lengths
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

LENGTHS = (12, 100, 300, 1000, 3000)
CASES = ((Fraction(1, 2), 1), (-5, Fraction(3, 2)), (Fraction(-7, 3), Fraction(2, 5)), (-4, 3))
REPEATS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--lengths", default=",".join(map(str, LENGTHS)))
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from eulermeasure import exact_series
    from eulermeasure.partition_combinatorics import gen_binomial

    rows = []
    for m, lam in CASES:
        for n in map(int, args.lengths.split(",")):
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                prefix = exact_series.binomial_prefix(m, lam, n)
                best = min(best, time.perf_counter() - start)
            last = prefix.coefficients[-1]
            if last != gen_binomial(Fraction(m), n) * Fraction(lam) ** n:
                raise SystemExit(f"m={m} lam={lam} n={n}: wrong last coefficient")
            rows.append({"m": str(m), "lam": str(lam), "terms": n,
                         "last_denominator_bits": last.denominator.bit_length(),
                         "ms": round(best * 1000, 3)})
            print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    print(json.dumps({"src": args.src, "repeats": REPEATS,
                      "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
