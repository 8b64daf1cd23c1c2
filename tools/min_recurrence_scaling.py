"""Scaling of the min_recurrence oracle with the recurrence order.

For each order L, times exact_series.min_recurrence on the prefix of
(1 + lam*t)^(-L) from binomial_prefix with 4L + 2 coefficients and a
rational lam, best of REPEATS, and checks that it finds order L and the
value (1 + lam)^(-L) at t=1.  --src picks the checkout whose library is
timed, so one run per checkout compares two versions.  Prints one JSON
object.

    python3 tools/min_recurrence_scaling.py                      # this checkout
    python3 tools/min_recurrence_scaling.py --src ../parent/src  # another one
    python3 tools/min_recurrence_scaling.py --orders 4,8         # other orders
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

ORDERS = (4, 8, 12, 16, 20, 24)
LAM = Fraction(2, 3)
REPEATS = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--orders", default=",".join(map(str, ORDERS)))
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from eulermeasure.exact_series import (
        binomial_prefix,
        eval_at_one,
        min_recurrence,
        to_rational_function,
    )

    rows = []
    for order in map(int, args.orders.split(",")):
        prefix = binomial_prefix(-order, LAM, 4 * order + 1)
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            rec = min_recurrence(prefix, order)
            best = min(best, time.perf_counter() - start)
        if rec is None or rec.order != order:
            raise SystemExit(f"order {order}: min_recurrence found {rec}")
        if eval_at_one(to_rational_function(prefix, rec)) != (1 + LAM) ** -order:
            raise SystemExit(f"order {order}: wrong value at t=1")
        rows.append({
            "order": order,
            "coefficients": len(prefix),
            "max_coefficient_bits": max(
                max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in prefix.coefficients
            ),
            "min_recurrence_ms": round(best * 1000, 3),
        })
        print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    print(json.dumps({"lam": str(LAM), "repeats": REPEATS, "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
