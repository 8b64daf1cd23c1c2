"""Scaling of mapspace --pairs: the closed counts against enumeration.

Times two paths for codomain sizes b:

* map_pair_measure(b) with default knobs: the certified fit (order
  bound 2, so k = 0..3) of the closed counts finite_pair_count;
* the enumeration oracle map_pair_count(b, 3), the largest of the four
  counts the fit reads, which scans all b^7 value sequences of 7 values
  each, and 2^3 breakpoint masks: 7 b^7 + 8 entries.  It runs only where
  those fit under limits.MAX_ENUMERATION (b <= 8); the measure used to
  take its counts from this oracle, so the oracle's time is close to what
  the measure cost before the closed counts.

Each row checks the value against binom(1/b, 2) and, where the oracle
runs, the two counts against each other.  Prints one JSON object.

    python3 tools/map_pair_scaling.py                 # the full table
    python3 tools/map_pair_scaling.py --sizes 2,3,50  # other sizes
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eulermeasure.limits import MAX_ENUMERATION  # noqa: E402
from eulermeasure.map_spaces import finite_pair_count, map_pair_count, map_pair_measure  # noqa: E402
from eulermeasure.partition_combinatorics import gen_binomial  # noqa: E402

SIZES = (*range(2, 13), 100, 1000)
ORACLE_K = 3
REPEATS = 5


def best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def ms(seconds: float) -> float:
    return round(seconds * 1000, 3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    args = parser.parse_args(argv)
    rows = []
    for bsize in map(int, args.sizes.split(",")):
        result = map_pair_measure(bsize)
        assert result.value == gen_binomial(Fraction(1, bsize), 2)
        length = 2 * ORACLE_K + 1
        entries = bsize ** length * length + 2 ** ORACLE_K
        oracle_ms = None
        if entries <= MAX_ENUMERATION:
            start = time.perf_counter()
            assert map_pair_count(bsize, ORACLE_K) == finite_pair_count(bsize, ORACLE_K)
            oracle_ms = ms(time.perf_counter() - start)
        rows.append({
            "b": bsize,
            "value": str(result.value),
            "counts_read": len(result.counts),
            "closed_measure_ms": ms(best_of(lambda: map_pair_measure(bsize))),
            "oracle_entries": entries,
            "oracle_k3_ms": oracle_ms,
        })
        print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    print(json.dumps({"oracle_k": ORACLE_K, "ceiling": MAX_ENUMERATION, "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
