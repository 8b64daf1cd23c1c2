"""Scaling of the series constructions with the size of their window.

Times four CLI calls, each as one process with default knobs, for p open
intervals (0,1) u (2,3) u ..:

* powerset: chi = -p, order bound p;
* mapspace --finite 2: the closed form 2^p / (1 + 3t)^p, order bound p;
* mapspace --chib -2: its domain must be (0,1), so it shows the same
  window, 2p - 1, through --terms;
* gizmo --ks 1: J = 1, order bound p.

Every call shows 2p coefficients, so the rows compare the constructions
at equal windows.  Each run has a time limit; a run that passes it is
recorded with its exit code null.  --src runs the CLI from another
checkout's src directory, which gives a before-and-after table.  Prints
one JSON object.

    python3 tools/construction_scaling.py                       # p = 250..1000
    python3 tools/construction_scaling.py --sizes 250 --timeout 10
    python3 tools/construction_scaling.py --src ../other/src    # another checkout
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SIZES = (250, 500, 750, 1000)
TIMEOUT = 60.0


def open_intervals(p: int) -> str:
    return " u ".join(f"({2 * i},{2 * i + 1})" for i in range(p))


def calls(p: int) -> dict[str, list[str]]:
    many = open_intervals(p)
    return {
        "powerset": ["powerset", many],
        "mapspace --finite 2": ["mapspace", many, "--finite", "2"],
        "mapspace --chib -2": ["mapspace", "(0,1)", "--chib", "-2", "--terms", str(2 * p - 1)],
        "gizmo --ks 1": ["gizmo", many, "--ks", "1"],
    }


def timed(argv: list[str], src: Path, timeout: float) -> tuple[int | None, float]:
    """Exit code and wall seconds of one CLI process; None on timeout."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    try:
        code = subprocess.run([sys.executable, "-m", "eulermeasure", *argv], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, round(time.perf_counter() - start, 3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    parser.add_argument("--timeout", type=float, default=TIMEOUT)
    parser.add_argument("--src", type=Path, default=SRC)
    args = parser.parse_args(argv)
    rows = []
    for p in map(int, args.sizes.split(",")):
        for verb, cli_argv in calls(p).items():
            code, seconds = timed(cli_argv, args.src.resolve(), args.timeout)
            rows.append({"verb": verb, "p": p, "exit": code, "seconds": seconds})
    json.dump({"timeout_s": args.timeout, "rows": rows}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
