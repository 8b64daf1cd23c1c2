"""Cost of every brute-force oracle, at sizes up to the enumeration ceiling.

For each oracle and each size it runs the call in a child process of
its own and prints one row: the entries the oracle passed to
limits.check_enumeration (the largest, where it checks more than once),
the seconds of the call and the child's peak RSS in MB, before and after
the call.  Each ladder of sizes ends above the ceiling, where the oracle
refuses before it builds anything (status "refused").  The table is the
measurement behind limits.MAX_ENUMERATION.  Prints one JSON object.

    python3 tools/oracle_scaling.py             # every size of every oracle
    python3 tools/oracle_scaling.py --first 1   # the smallest size of each
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eulermeasure import (  # noqa: E402
    choose_construction,
    fibonacci_subsets,
    limits,
    map_spaces,
    partition_combinatorics,
    power_gizmos,
    verify,
)
from eulermeasure.errors import ResourceLimitError  # noqa: E402
from eulermeasure.interval_sets import points  # noqa: E402
from eulermeasure.setparse import parse_set_expression  # noqa: E402

LIMIT_S = 120


def intervals(n: int):
    return parse_set_expression(" u ".join(f"({2 * i},{2 * i + 1})" for i in range(n)))


# oracle -> (what a size means, the sizes, the call at one size)
ORACLES = {
    "choose_cells": ("k on 12 open intervals", (8, 10, 12, 13, 14),
                     lambda k: choose_construction.choose_cells(intervals(12), k)),
    "parity_strata_coefficient": ("n open intervals at k = n", (8, 10, 11, 12, 13),
                                  lambda n: fibonacci_subsets.parity_strata_coefficient(
                                      intervals(n), n)),
    "partitions_of": ("k", (8, 9, 10, 11, 12), partition_combinatorics.partitions_of),
    "partition_types": ("k", (30, 40, 50, 55, 60), partition_combinatorics.partition_types),
    "gizmo_support_census": ("ground size for --ks 2", (7, 8, 9, 10, 11, 12),
                             lambda g: power_gizmos.gizmo_support_census(
                                 power_gizmos.GizmoSpec((2,)), g)),
    "brute_map_count": ("k for b = 2", (5, 6, 7, 8, 9, 10),
                        lambda k: map_spaces.brute_map_count(2, k)),
    "map_pair_count": ("k for b = 3", (3, 4, 5, 6, 7),
                       lambda k: map_spaces.map_pair_count(3, k)),
    "valid_subsets_by_all_pairs": ("points", (8, 10, 12, 14, 15, 16),
                                   lambda n: verify.valid_subsets_by_all_pairs(points(range(n)))),
}

# every module that enumerates, with the name it calls the check by
CHECKED = (choose_construction, partition_combinatorics, power_gizmos, map_spaces, verify)


def rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def measure(oracle: str, size: int) -> dict:
    """One call, in this process: the largest entries checked, seconds, RSS."""
    checked = [0]

    def recording(entries: int, what: str) -> None:
        checked[0] = max(checked[0], entries)
        limits.check_enumeration(entries, what)

    for module in CHECKED:
        module.check_enumeration = recording
    call = ORACLES[oracle][2]
    before = rss_mb()
    start = time.perf_counter()
    try:
        call(size)
    except ResourceLimitError:
        status = "refused"
    else:
        status = "ok"
    seconds = round(time.perf_counter() - start, 3)
    return {"oracle": oracle, "size": size, "entries": checked[0], "status": status,
            "seconds": seconds, "rss_before_mb": before, "peak_rss_mb": rss_mb()}


def run_child(oracle: str, size: int) -> dict:
    try:
        out = subprocess.run([sys.executable, __file__, "--child", oracle, str(size)],
                             capture_output=True, text=True, timeout=LIMIT_S, check=True)
    except subprocess.TimeoutExpired:
        return {"oracle": oracle, "size": size, "status": f"over {LIMIT_S} s"}
    return json.loads(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, help="run only the first N sizes of each oracle")
    parser.add_argument("--child", nargs=2, metavar=("ORACLE", "SIZE"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.child[0], int(args.child[1]))))
        return 0
    rows = []
    for oracle, (meaning, sizes, _) in ORACLES.items():
        for size in sizes[:args.first]:
            rows.append(run_child(oracle, size) | {"size_means": meaning})
            print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    print(json.dumps({"ceiling": limits.MAX_ENUMERATION, "python": sys.version.split()[0],
                      "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
