"""Cost of the gizmo fit, the iterated binomial polynomial and gizmo_measure.

For one selection size J (ks = (J,), so the weights have J exponential
bases) it times, in this process:

* fit_ms: gizmo_fit, the Vandermonde fit on the support counts, which is
  the oracle of the weights and runs on no CLI path;
* polynomial_ms: iterated_binomial_polynomial, the polynomial whose
  coefficients are the weights;
* measure ms at chi = -1 ("(0,1)") and chi = 2 ("{0,1}"): gizmo_measure,
  which reads the weights off the polynomial and keeps nothing between
  calls.

It also times the polynomial alone for each ks of POLYNOMIAL_ONLY, whose
gizmo lies above the size ceiling (limits.MAX_GIZMO_BITS).  Each time is
the best of --repeats runs.  J = 60 is the largest single selection size
under that ceiling at chi = -1.  Prints one JSON object.

    python3 tools/gizmo_fit_scaling.py                  # J = 2, 4, 8, 16, 32, 60
    python3 tools/gizmo_fit_scaling.py --dims 2,4 --repeats 1
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eulermeasure import power_gizmos  # noqa: E402
from eulermeasure.setparse import parse_set_expression  # noqa: E402

DIMS = (2, 4, 8, 16, 32, 60)
POLYNOMIAL_ONLY = ((6, 9, 2),)
REPEATS = 5
SETS = {-1: "(0,1)", 2: "{0,1}"}


def best_ms(call, repeats: int) -> float:
    """The fastest of ``repeats`` timed calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return round(min(times) * 1000, 3)


def polynomial_ms(ks: tuple[int, ...], repeats: int) -> float:
    return best_ms(functools.partial(power_gizmos.iterated_binomial_polynomial, ks), repeats)


def row(j_dim: int, repeats: int) -> dict:
    spec = power_gizmos.GizmoSpec((j_dim,))
    measures = [{"chi": chi, "ms": best_ms(functools.partial(
        power_gizmos.gizmo_measure, parse_set_expression(text), spec), repeats)}
        for chi, text in SETS.items()]
    return {"J": j_dim, "fit_ms": best_ms(functools.partial(power_gizmos.gizmo_fit, spec), repeats),
            "polynomial_ms": polynomial_ms(spec.ks, repeats), "measure": measures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dims", default=",".join(map(str, DIMS)))
    parser.add_argument("--repeats", type=int, default=REPEATS)
    args = parser.parse_args(argv)
    rows = [row(j_dim, args.repeats) for j_dim in map(int, args.dims.split(","))]
    polynomial_only = [{"ks": list(ks), "J": math.prod(ks),
                        "polynomial_ms": polynomial_ms(ks, args.repeats)} for ks in POLYNOMIAL_ONLY]
    json.dump({"repeats": args.repeats, "python": sys.version.split()[0], "rows": rows,
               "polynomial_only": polynomial_only}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
