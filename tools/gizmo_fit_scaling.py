"""Cost of the gizmo fit, and of gizmo_measure with a cold and a warm fit cache.

For one selection size J (ks = (J,), so the fit has J exponential
bases) it times, in this process:

* fit_cold_ms: gizmo_fit itself, which is never cached;
* measure cold_ms and warm_ms at chi = -1 ("(0,1)") and chi = 2
  ("{0,1}"): gizmo_measure right after clearing the per-ks fit cache,
  and again with the fit already kept.

Each time is the best of --repeats runs.  J = 60 is the largest single
selection size under the gizmo size ceiling at chi = -1.  Prints one
JSON object.

    python3 tools/gizmo_fit_scaling.py                  # J = 2, 4, 8, 16, 32, 60
    python3 tools/gizmo_fit_scaling.py --dims 2,4 --repeats 1
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eulermeasure import power_gizmos  # noqa: E402
from eulermeasure.setparse import parse_set_expression  # noqa: E402

DIMS = (2, 4, 8, 16, 32, 60)
REPEATS = 5
SETS = {-1: "(0,1)", 2: "{0,1}"}


def best_ms(call, repeats: int, before=lambda: None) -> float:
    """The fastest of ``repeats`` timed calls, each after ``before``."""
    times = []
    for _ in range(repeats):
        before()
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return round(min(times) * 1000, 3)


def row(j_dim: int, repeats: int) -> dict:
    spec = power_gizmos.GizmoSpec((j_dim,))
    clear = power_gizmos._fit_for.cache_clear
    measures = []
    for chi, text in SETS.items():
        call = functools.partial(power_gizmos.gizmo_measure, parse_set_expression(text), spec)
        cold = best_ms(call, repeats, clear)  # leaves the fit cached
        measures.append({"chi": chi, "cold_ms": cold, "warm_ms": best_ms(call, repeats)})
    return {"J": j_dim, "fit_cold_ms": best_ms(lambda: power_gizmos.gizmo_fit(spec), repeats),
            "measure": measures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dims", default=",".join(map(str, DIMS)))
    parser.add_argument("--repeats", type=int, default=REPEATS)
    args = parser.parse_args(argv)
    rows = [row(j_dim, args.repeats) for j_dim in map(int, args.dims.split(","))]
    json.dump({"repeats": args.repeats, "python": sys.version.split()[0], "rows": rows},
              sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
