"""Scaling of fib: the closed form against enumeration.

Times two paths to the same value:

* fibonacci_measure with default knobs: the transfer-matrix polynomial,
  taken as its own closed form;
* the enumeration path before the transfer matrix: continue_series, with
  order bound d = pieces + 1, on the 2d coefficients of the default
  window counted by parity_strata_coefficient, whose value at t=1 must
  equal the Fibonacci formula.

The fit of the polynomial's own coefficients, the path between the two,
is timed in BENCH_transfer_matrix_fib.json.

Sets are disjoint pieces: points only, open intervals only, or
alternating point and interval.  Each enumeration case runs in its own
process, is stopped after LIMIT_S seconds or refused above the
enumeration ceiling (limits.MAX_ENUMERATION), and stops its kind once
it has been stopped or refused.  Prints one JSON object.

    python3 tools/fib_scaling.py                 # the full table
    python3 tools/fib_scaling.py --sizes 8,12    # other sizes
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eulermeasure.errors import ResourceLimitError  # noqa: E402
from eulermeasure.exact_series import (  # noqa: E402
    SeriesPrefix,
    continue_series,
    eval_at_one,
    series_window,
)
from eulermeasure.fibonacci_subsets import (  # noqa: E402
    extended_fibonacci,
    fibonacci_measure,
    parity_polynomial,
    parity_strata_coefficient,
)
from eulermeasure.interval_sets import OpenInterval, Point, PolyhedralSet1D, ext  # noqa: E402

KINDS = ("points", "intervals", "alternating")
SIZES = (50, 100, 200, 400, 800, 2000, 4000)
LIMIT_S = 10.0
REPEATS = 3


def build(kind: str, n: int) -> PolyhedralSet1D:
    def piece(i: int):
        point = kind == "points" or (kind == "alternating" and i % 2 == 0)
        return Point(Fraction(2 * i)) if point else OpenInterval(ext(2 * i), ext(2 * i + 1))

    return PolyhedralSet1D.from_pieces(piece(i) for i in range(n))


def enumeration_value(P: PolyhedralSet1D) -> Fraction:
    """fibonacci_measure as it was before the transfer matrix: a
    certified fit of the enumerated stratum counts."""
    order_bound = len(P.pieces) + 1  # the series is a polynomial of degree <= pieces
    last = series_window(order_bound)
    counts = tuple(parity_strata_coefficient(P, k) for k in range(last + 1))
    series = continue_series(SeriesPrefix(counts), order_bound)
    value, formula = eval_at_one(series.closed_form), extended_fibonacci(P.euler_measure() + 1)
    if value != formula:
        raise AssertionError(f"route disagreement: series_regularization gives {value}, "
                             f"extended_fibonacci gives {formula}")
    return value


def best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def ms(seconds: float) -> float:
    return round(seconds * 1000, 3)


def time_enumeration(kind: str, n: int) -> float | None:
    """Seconds of one enumeration-path call in a child process; None past
    LIMIT_S, or when the child exits 3 above the enumeration ceiling."""
    try:
        out = subprocess.run([sys.executable, __file__, "--enumerate", kind, str(n)],
                             capture_output=True, text=True, timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        return None
    if out.returncode == ResourceLimitError.exit_code:
        return None
    out.check_returncode()
    return float(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    parser.add_argument("--enumerate", nargs=2, metavar=("KIND", "N"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.enumerate:
        P = build(args.enumerate[0], int(args.enumerate[1]))
        start = time.perf_counter()
        try:
            enumeration_value(P)
        except ResourceLimitError as exc:
            print(exc, file=sys.stderr)
            return exc.exit_code
        print(time.perf_counter() - start)
        return 0
    rows = []
    for kind in KINDS:
        stopped = False
        for n in map(int, args.sizes.split(",")):
            P = build(kind, n)
            result = fibonacci_measure(P)
            assert result.value == result.expected
            old = None if stopped else time_enumeration(kind, n)
            rows.append({
                "kind": kind,
                "pieces": n,
                "chi": P.euler_measure(),
                "coefficients": len(result.series.prefix),
                "transfer_matrix_counts_ms": ms(best_of(lambda: parity_polynomial(P))),
                "closed_form_fib_ms": ms(best_of(lambda: fibonacci_measure(P))),
                "enumeration_fib_ms": None if old is None else ms(old),
            })
            stopped = stopped or old is None
            print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    print(json.dumps({"limit_s": LIMIT_S, "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
