"""Compare benchmark runs of a parent commit and a change.

Make alternating runs (parent first on even pairs, change first on odd
ones), each side from its own checkout, then report::

    python3 perfbench/compare.py run --parent ../parent --change . \\
        --out perfbench/results/compare
    python3 perfbench/compare.py report perfbench/results/compare/parent \\
        perfbench/results/compare/change

``run`` makes PAIRS pairs of runs of every workload, with seeds from
FIRST_SEED on, each run BENCHMARK.json's ``run_seconds`` long.
``report`` reads the untraced run summaries (``*.json`` written by
run.py) and prints, per workload and end-to-end metric, each side's median and
quartiles, the share of pairs the change won, and a verdict:

* gain -- the change wins at least 9 of 10 pairs and the medians differ by
  more than the parent's own quartile distance;
* unresolved -- the parent's quartile distance exceeds the metric's bound,
  unless every change run reads better than every parent run;
* regression -- the change's median is worse by more than the bound;
* within bound -- otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
PAIRS = 10
FIRST_SEED = 1


def load_benchmark() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def load_spec() -> dict:
    """name -> (better, bound) for each end-to-end metric of BENCHMARK.json."""
    return {m["name"]: (m["better"], m["bound"]) for m in load_benchmark()["end_to_end"]}


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """Untraced run summaries by workload, oldest first."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json"), key=lambda p: p.stat().st_mtime):
        summary = json.loads(path.read_text())
        meta = summary["metadata"]
        if meta["trace"] == 0:
            runs.setdefault(meta["workload"], []).append(summary)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float):
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if pairs and wins >= 0.9 * len(pairs) and sign * (cm - pm) > p3 - p1:
        return "gain", wins, len(pairs)
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if pm and sign * (cm - pm) < -bound * abs(pm):
        return "regression", wins, len(pairs)
    return "within bound", wins, len(pairs)


def report(parent_dir: Path, change_dir: Path) -> int:
    spec = load_spec()
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    worst = 0
    for workload in WORKLOADS:
        if workload not in parent_runs or workload not in change_runs:
            continue
        print(f"{workload}: {len(parent_runs[workload])} parent runs, "
              f"{len(change_runs[workload])} change runs")
        for name, (better, bound) in spec.items():
            parent = [r["metrics"][name]["value"] for r in parent_runs[workload]]
            change = [r["metrics"][name]["value"] for r in change_runs[workload]]
            unit = parent_runs[workload][0]["metrics"][name]["unit"]
            outcome, wins, pairs = verdict(parent, change, better, bound)
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            print(f"  {name:16s} parent {pm:11.5g} [{p1:.5g}, {p3:.5g}]  "
                  f"change {cm:11.5g} [{c1:.5g}, {c3:.5g}] {unit:6s} "
                  f"won {wins}/{pairs}  bound {bound}  -> {outcome}")
            if outcome == "regression":
                worst = 1
    return worst


def run_pairs(args) -> int:
    out = Path(args.out)
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    seconds = load_benchmark()["run_seconds"]
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        seed = FIRST_SEED + i
        for workload in WORKLOADS:
            for side in order:
                root = sides[side]
                cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                       "--out", str((out / side).resolve())]
                proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
                status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
                print(f"pair {i} {workload} {side} seed {seed}: {status}", flush=True)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return 1
    return report(out / "parent", out / "change")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="alternate parent and change runs, then report")
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--out", required=True)
    p = sub.add_parser("report", help="compare existing run summaries")
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_pairs(args)
    return report(Path(args.parent_dir), Path(args.change_dir))


if __name__ == "__main__":
    sys.exit(main())
