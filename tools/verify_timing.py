"""Process time of every verify check and scope in two checkouts, alternating.

Each round starts one child process per checkout, the first checkout
first on even rounds and the second first on odd ones, so a slow spell
of a shared machine falls on both.  A child imports eulermeasure from its
checkout's src/, runs the whole suite once untimed (imports, caches),
then REPEAT passes over verify.CHECKS, timing each check with
time.process_time; a pass's scope time is the sum of its checks.  Every
check must pass.  The tool reports, per checkout, the minimum over all
rounds and passes of each check, of each scope and of the whole suite,
with the ratio second / first: process time leaves out the time other
processes take the CPU, and the minimum the passes they still slowed.
Prints one JSON object.

    python3 tools/verify_timing.py --first ../parent --second .
    python3 tools/verify_timing.py --first ../parent --second . --rounds 2 --repeat 1
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROUNDS = 6
REPEAT = 3


def child(src: str, repeat: int) -> dict:
    """Per-pass process times in ms of every check, in this process."""
    sys.path.insert(0, src)
    from eulermeasure import verify

    verify.run_verify("all")
    passes = []
    for _ in range(repeat):
        times = {}
        for scope, name, fn in verify.CHECKS:
            start = time.process_time()
            detail = fn()
            times[f"{scope}.{name}"] = (time.process_time() - start) * 1000
            if detail is not None:
                raise SystemExit(f"{scope}.{name} failed in {src}: {detail}")
        passes.append(times)
    return {"passes": passes}


def run_child(checkout: Path, repeat: int) -> list[dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(checkout / "src"),
           "--repeat", str(repeat)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode:
        raise SystemExit(f"{checkout}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)["passes"]


def minima(passes: list[dict]) -> dict:
    """The minimum of each check, each scope and the suite over the passes."""
    checks = {key: min(p[key] for p in passes) for key in passes[0]}
    scopes: dict[str, float] = {}
    for p in passes:
        sums: dict[str, float] = {}
        for key, ms in p.items():
            scope = key.split(".", 1)[0]
            sums[scope] = sums.get(scope, 0.0) + ms
        for scope, ms in sums.items():
            scopes[scope] = min(scopes.get(scope, ms), ms)
    return {"suite": {"all": min(sum(p.values()) for p in passes)}, "scopes": scopes,
            "checks": checks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", help="checkout of the baseline, e.g. the parent commit")
    parser.add_argument("--second", help="checkout compared against it")
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--repeat", type=int, default=REPEAT)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.repeat)))
        return 0
    if not (args.first and args.second):
        parser.error("--first and --second are required")
    sides = {"first": Path(args.first).resolve(), "second": Path(args.second).resolve()}
    passes: dict[str, list[dict]] = {"first": [], "second": []}
    for i in range(args.rounds):
        for side in ("first", "second") if i % 2 == 0 else ("second", "first"):
            passes[side] += run_child(sides[side], args.repeat)
    best = {side: minima(p) for side, p in passes.items()}

    def rows(part: str) -> dict:
        """first_ms, second_ms and their ratio for each key, None where a
        checkout has no such check or scope."""
        a, b = best["first"][part], best["second"][part]
        out = {}
        for key in {**a, **b}:
            x, y = a.get(key), b.get(key)
            out[key] = {"first_ms": None if x is None else round(x, 3),
                        "second_ms": None if y is None else round(y, 3),
                        "ratio": round(y / x, 3) if x and y is not None else None}
        return out

    print(json.dumps({
        "first": str(sides["first"]), "second": str(sides["second"]),
        "rounds": args.rounds, "repeat": args.repeat, "python": sys.version.split()[0],
        "total": rows("suite")["all"], "scopes": rows("scopes"), "checks": rows("checks"),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
