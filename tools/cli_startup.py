"""Wall time of fresh eulermeasure processes: the set-up probe and one call per verb.

Each case is one new interpreter, timed from spawn to exit.  The cases
are a bare interpreter (``python -c pass``), the benchmark's set-up probe
(``import eulermeasure.cli as c; c.build_parser()``) and one
``python -m eulermeasure`` call of each verb.  Rounds run every case
once, in turn, so a slow spell of a shared machine falls on all of them;
the tool reports the median of each case over the rounds, in ms.

Two bytecode states are timed.  ``inherited`` runs with the bytecode
the interpreter and the checkout already have and writes none
(PYTHONDONTWRITEBYTECODE=1), so modules without bytecode are compiled
from source in every process.  ``compiled`` points PYTHONPYCACHEPREFIX
at a temporary directory and runs every case once untimed first, which
compiles each module a case imports into it.  Neither state writes into
the checkout.  --src picks the checkout's src/ directory, so one run per
checkout compares two versions.  Prints one JSON object.

    python3 tools/cli_startup.py                       # this checkout, 21 rounds
    python3 tools/cli_startup.py --src ../parent/src --runs 5
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUNS = 21
SRC = Path(__file__).resolve().parent.parent / "src"
PROBE = "import eulermeasure.cli as c; c.build_parser()"
VERBS = {
    "measure": ["measure", "(0,1)"],
    "choose": ["choose", "(0,1)", "-k", "2"],
    "powerset": ["powerset", "(0,1)"],
    "gizmo": ["gizmo", "(0,1)", "--ks", "2"],
    "mapspace": ["mapspace", "(0,1)", "--finite", "2"],
    "fib": ["fib", "{0,1,2}"],
    "verify": ["verify", "--scope", "cli"],
}


def cases() -> dict[str, list[str]]:
    """Each case's name and its command line."""
    out = {"interpreter": [sys.executable, "-c", "pass"],
           "setup_probe": [sys.executable, "-c", PROBE]}
    for verb, argv in VERBS.items():
        out[verb] = [sys.executable, "-m", "eulermeasure", *argv]
    return out


def spawn(cmd: list[str], env: dict, cwd: str) -> float:
    """Seconds from spawning cmd to its exit; a failing call stops the tool."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def time_state(env: dict, runs: int, cwd: str, warm: bool) -> dict[str, float]:
    """Median ms of each case over runs rounds, after one untimed round if warm."""
    table = cases()
    if warm:
        for cmd in table.values():
            spawn(cmd, env, cwd)
    times: dict[str, list[float]] = {name: [] for name in table}
    for _ in range(runs):
        for name, cmd in table.items():
            times[name].append(spawn(cmd, env, cwd))
    return {name: round(statistics.median(t) * 1000, 2) for name, t in times.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(SRC), help="the src/ directory of the checkout")
    parser.add_argument("--runs", type=int, default=RUNS, help="rounds over the cases")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    src = str(Path(args.src).resolve())
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}
    base["PYTHONPATH"] = src
    states = {}
    with tempfile.TemporaryDirectory() as cwd, tempfile.TemporaryDirectory() as prefix:
        # cwd is empty, so neither state imports anything from the caller's directory
        states["inherited"] = time_state(base | {"PYTHONDONTWRITEBYTECODE": "1"}, args.runs,
                                         cwd, warm=False)
        states["compiled"] = time_state(base | {"PYTHONPYCACHEPREFIX": prefix}, args.runs,
                                        cwd, warm=True)
    print(json.dumps({
        "src": src, "runs": args.runs, "python": sys.version.split()[0],
        "cases": {name: " ".join(cmd[1:]) for name, cmd in cases().items()},
        "median_ms": states,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
