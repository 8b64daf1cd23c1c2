"""Scaling of fib: the closed form against the fit and against enumeration.

Times three paths to the same value:

* fibonacci_measure with default knobs: the transfer-matrix polynomial,
  taken as its own closed form;
* the fit path it replaced: fit_series on that polynomial's
  coefficients with order bound pieces + 1, and the same Regularized
  record;
* the enumeration path before the transfer matrix: the same fit, fed by
  parity_strata_coefficient with the strata cap raised to terms.

Sets are disjoint pieces: points only, open intervals only, or
alternating point and interval.  Each enumeration case runs in its own
process, is stopped after LIMIT_S seconds, and stops its kind once it
has passed LIMIT_S.  Prints one JSON object.

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

from eulermeasure.exact_series import Regularized, fit_series, series_window  # noqa: E402
from eulermeasure.fibonacci_subsets import (  # noqa: E402
    GRADING,
    extended_fibonacci,
    fibonacci_measure,
    parity_polynomial,
    parity_strata_coefficient,
)
from eulermeasure.interval_sets import OpenInterval, Point, PolyhedralSet1D, ext  # noqa: E402

KINDS = ("points", "intervals", "alternating")
SIZES = (50, 100, 200, 400, 800, 2000)
LIMIT_S = 10.0
REPEATS = 3


def build(kind: str, n: int) -> PolyhedralSet1D:
    def piece(i: int):
        point = kind == "points" or (kind == "alternating" and i % 2 == 0)
        return Point(Fraction(2 * i)) if point else OpenInterval(ext(2 * i), ext(2 * i + 1))

    return PolyhedralSet1D.from_pieces(piece(i) for i in range(n))


def fit_measure(P: PolyhedralSet1D, coefficient) -> Regularized:
    """fibonacci_measure as a certified fit of the given coefficients."""
    order_bound = len(P.pieces) + 1  # the series is a polynomial of degree <= pieces
    series = fit_series(coefficient, order_bound, None, GRADING)
    routes = {"series_regularization": series.regularized_value(),
              "extended_fibonacci": extended_fibonacci(P.euler_measure() + 1)}
    return Regularized.of(series, routes, order_bound=order_bound)


def polynomial_fit(P: PolyhedralSet1D) -> Regularized:
    """fibonacci_measure as it was before the closed form."""
    poly = parity_polynomial(P)
    return fit_measure(P, lambda k: poly[k] if k < len(poly) else 0)


def enumeration_value(P: PolyhedralSet1D) -> Fraction:
    """fibonacci_measure as it was before the transfer matrix."""
    terms = series_window(len(P.pieces) + 1)
    cap = max(terms, 10)
    return fit_measure(P, lambda k: parity_strata_coefficient(P, k, cap=cap)).value


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
    """Seconds of one enumeration-path call in a child process; None past LIMIT_S."""
    try:
        out = subprocess.run([sys.executable, __file__, "--enumerate", kind, str(n)],
                             capture_output=True, text=True, timeout=LIMIT_S, check=True)
    except subprocess.TimeoutExpired:
        return None
    return float(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    parser.add_argument("--enumerate", nargs=2, metavar=("KIND", "N"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.enumerate:
        P = build(args.enumerate[0], int(args.enumerate[1]))
        start = time.perf_counter()
        enumeration_value(P)
        print(time.perf_counter() - start)
        return 0
    rows = []
    for kind in KINDS:
        stopped = False
        for n in map(int, args.sizes.split(",")):
            P = build(kind, n)
            result, fitted = fibonacci_measure(P), polynomial_fit(P)
            assert result.value == result.expected == fitted.value
            assert result.series.closed_form == fitted.series.closed_form
            old = None if stopped else time_enumeration(kind, n)
            rows.append({
                "kind": kind,
                "pieces": n,
                "chi": P.euler_measure(),
                "coefficients": len(result.series.prefix),
                "fit_recurrence_order": fitted.series.recurrence.order,
                "fit_coefficients": len(fitted.series.prefix),
                "transfer_matrix_counts_ms": ms(best_of(lambda: parity_polynomial(P))),
                "closed_form_fib_ms": ms(best_of(lambda: fibonacci_measure(P))),
                "fit_fib_ms": ms(best_of(lambda: polynomial_fit(P))),
                "enumeration_fib_ms": None if old is None else ms(old),
            })
            stopped = stopped or old is None
            print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    print(json.dumps({"limit_s": LIMIT_S, "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
