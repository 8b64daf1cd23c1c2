"""Closed-loop benchmark of the eulermeasure CLI and library.

One client, one process, no threads: each query starts when the last one
has finished.  Run from the root of a checkout::

    python3 perfbench/run.py --workload sets --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
cycles twice, untraced and then with every public program function
wrapped from outside, and prints the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed,
metrics.  Per-query records, run metadata and spans are written under
``--out`` (default perfbench/results).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# A run stops starting queries after this many seconds, so that it ends
# well within three minutes even when the program is far slower than today.
HARD_STOP_S = 140.0
SETUP_REPEATS = 9
# A timed run runs whole cycles until at least this many queries have run,
# so that at least 10 samples lie beyond p90.
MIN_SAMPLES = 100

WORKLOADS = ("sets", "regularize", "cli_mix", "verify")
FAILURE_BY_EXIT = {2: "input", 3: "resource", 4: "regularization", 5: "internal"}
END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_mean_ms": "ms",
    "success_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class QueryTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that the program's
    own ``except Exception`` (a crashed verify check) cannot swallow it."""


class QueryTimer:
    """Per-query limit through ITIMER_REAL, which signals only this process."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise QueryTimeout()

    def arm(self, seconds: float):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.armed = False


class WrongAnswer(Exception):
    def __init__(self, message: str, attempted: int):
        super().__init__(message)
        self.attempted = attempted


def measure_setup(speed) -> float:
    """Median time from spawning a fresh interpreter to a built parser,
    rescaled by the speed reference (see speed.py)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    code = "import eulermeasure.cli as c; c.build_parser(); print('ready', flush=True)"
    spans = []
    for i in range(SETUP_REPEATS + 1):  # the first spawn warms the bytecode cache
        speed.probe()
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              env=env, cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            end = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        if i:
            spans.append((start, end))
    speed.probe()
    return statistics.median((end - start) * speed.factor(start, end) for start, end in spans)


def execute(query, limit_s: float, timer: QueryTimer, cli, errors) -> tuple[str, float, object, int]:
    """Run one query; returns (outcome, seconds, answer, output bytes)."""
    from workloads import CliAnswer

    out, err = io.StringIO(), io.StringIO()
    answer = None
    start = time.perf_counter()
    try:
        try:
            timer.arm(limit_s)
            if query.argv is not None:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(query.argv)
                    except SystemExit as exc:  # argparse rejected the arguments
                        code = exc.code if isinstance(exc.code, int) else 2
                answer = CliAnswer(code, out.getvalue(), err.getvalue())
            else:
                answer = query.call()
        finally:
            timer.disarm()
            elapsed = time.perf_counter() - start
    except QueryTimeout:
        return "timeout", elapsed, None, 0
    except errors.EulerMeasureError as exc:
        return FAILURE_BY_EXIT.get(exc.exit_code, "internal"), elapsed, None, 0
    except Exception:  # anything else escaping the program is a traceback
        return "traceback", elapsed, None, 0
    size = 0
    if query.argv is not None:
        size = len(answer.stdout.encode()) + len(answer.stderr.encode())
        if answer.code == 1:
            return "check-failed", elapsed, answer, size
        if answer.code != 0:
            return FAILURE_BY_EXIT.get(answer.code, "internal"), elapsed, None, size
    return "ok", elapsed, answer, size


def run_pass(workload, seed: int, seconds: float, hard_stop: float, timer, cli, errors, speed,
             cycles: int | None = None, tracer=None, first_query_id: int = 0):
    """Run whole cycles: until the next would overrun ``seconds`` (and at least
    MIN_SAMPLES queries ran), or exactly ``cycles`` of them."""
    records = []
    start = time.perf_counter()
    index = 0
    speed.probe()
    while cycles is None or index < cycles:
        for query in workload.cycle(seed, index):
            if time.perf_counter() > hard_stop:
                speed.probe()
                return records, index
            query_id = first_query_id + len(records)
            if tracer is not None:
                tracer.begin_query(query_id)
            gc.collect()  # each query starts from a collected heap
            began = time.perf_counter()
            outcome, elapsed, answer, size = execute(query, workload.limit_s, timer, cli, errors)
            attempted = query_id + 1
            if outcome == "check-failed":
                raise WrongAnswer(f"{query.kind} {query.argv}: exit 1, a check of the program "
                                  "failed", attempted)
            if outcome == "ok":
                try:
                    query.check(answer)
                except Exception as exc:
                    raise WrongAnswer(f"{query.kind} {query.sizes}: {exc}", attempted) from exc
            records.append({
                "query": query_id,
                "workload": workload.name,
                "cycle": index,
                "kind": query.kind,
                "sizes": query.sizes,
                "began": began,
                "latency_ms": elapsed * 1000,
                "outcome": outcome,
                "output_bytes": size,
                "traced": tracer is not None,
            })
            speed.maybe_probe()
        index += 1
        if cycles is None:
            elapsed = time.perf_counter() - start
            if len(records) >= MIN_SAMPLES and elapsed * (index + 1) / index > seconds:
                break
    speed.probe()
    return records, index


def rescale(records, speed, limit_s: float, origin: float):
    """Adds each query's speed factor, rescaled time and charged time.

    A failed query is charged the workload's per-query limit."""
    for r in records:
        began = r.pop("began")
        r["speed_factor"] = speed.factor(began, began + r["latency_ms"] / 1000)
        r["scaled_ms"] = r["latency_ms"] * r["speed_factor"]
        r["charged_ms"] = r["scaled_ms"] if r["outcome"] == "ok" else limit_s * 1000
        r["began_s"] = began - origin


def latency_summary(records) -> dict:
    charged = sorted(r["charged_ms"] for r in records)
    p90 = statistics.quantiles(charged, n=10, method="inclusive")[8] if len(charged) > 1 \
        else charged[0]
    return {
        "samples": len(charged),
        "p50_ms": statistics.median(charged),
        "p90_ms": p90,
        "beyond_p90": sum(1 for x in charged if x > p90),
        "mean_ms": statistics.fmean(charged),
    }


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(args) -> int:
    started = time.perf_counter()
    hard_stop = started + HARD_STOP_S
    os.environ.pop("EULERMEASURE_ENUM_CAP", None)  # measure the default caps
    sys.path.insert(0, str(SRC))

    import oracle

    oracle.self_test()
    import layers
    import speed as speed_reference
    import tracer as tracing
    import workloads
    from eulermeasure import cli, errors

    workload = workloads.WORKLOADS[args.workload]
    speed = speed_reference.SpeedReference()
    setup_s = measure_setup(speed)
    timer = QueryTimer()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}" \
           f"-{os.getpid()}"

    seconds = args.seconds / 2 if args.trace else args.seconds
    traced_records, tracer = [], None
    try:
        records, cycles = run_pass(workload, args.seed, seconds, hard_stop, timer, cli, errors,
                                   speed)
        if args.trace:
            tracing.self_test()
            with tracing.Tracer(layers.targets()) as tracer:
                traced_records, _ = run_pass(workload, args.seed, seconds, hard_stop, timer,
                                             cli, errors, speed, cycles=cycles, tracer=tracer,
                                             first_query_id=len(records))
    except WrongAnswer as exc:
        print(f"wrong answer, run aborted: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": exc.attempted, "failed": 0,
                          "metrics": {}}))
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rescale(records + traced_records, speed, workload.limit_s, started)

    attempted = len(records)
    failed = sum(1 for r in records if r["outcome"] != "ok")
    summary = latency_summary(records)
    units = {}
    if args.trace:
        values = layers.per_cycle_metrics(tracer, traced_records, cycles)
        for cls in layers.FAILURE_CLASSES:
            values[f"failures.{cls}"] = sum(1 for r in records if r["outcome"] == cls)
        values["failures.share"] = failed / attempted
        # Overhead compares rescaled times, not charged ones: charging
        # failures the limit would hide it behind a constant.
        untraced_ms = statistics.fmean(r["scaled_ms"] for r in records)
        traced_ms = statistics.fmean(r["scaled_ms"] for r in traced_records)
        values["trace.query_mean_ms.untraced"] = untraced_ms
        values["trace.query_mean_ms.traced"] = traced_ms
        values["trace.overhead_share"] = (traced_ms - untraced_ms) / untraced_ms
        units = layers.metric_units()
    else:
        values = {
            "latency_p50_ms": summary["p50_ms"],
            "latency_p90_ms": summary["p90_ms"],
            "latency_mean_ms": summary["mean_ms"],
            "success_share": (attempted - failed) / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    metadata = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "per_query_limit_s": workload.limit_s,
        "cycles": cycles,
        "queries_per_cycle": attempted / cycles if cycles else 0,
        "latency": summary,
        "failed_share": failed / attempted,
        "failures": {cls: sum(1 for r in records if r["outcome"] == cls)
                     for cls in layers.FAILURE_CLASSES},
        "setup_repeats": SETUP_REPEATS,
        "speed_reference": {
            "nominal_slice_ms": speed_reference.NOMINAL_SLICE_MS,
            "slices": len(speed.durations),
            "median_slice_ms": statistics.median(speed.durations) * 1000,
            "min_slice_ms": min(speed.durations) * 1000,
            "max_slice_ms": max(speed.durations) * 1000,
        },
        "raw_latency_ms": {
            "p50": statistics.median(r["latency_ms"] for r in records),
            "mean": statistics.fmean(r["latency_ms"] for r in records),
        },
        "wall_s": time.perf_counter() - started,
    }
    with open(out_dir / f"{stem}.records.jsonl", "w") as fh:
        for record in records + traced_records:
            fh.write(json.dumps(record) + "\n")
    if tracer is not None:
        tracer.write(out_dir / f"{stem}.spans.tsv.gz")
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump({"metadata": metadata, "attempted": attempted, "failed": failed,
                   "metrics": metrics}, fh, indent=1)

    print(f"workload {workload.name}: {attempted} queries in {cycles} cycles, "
          f"{failed} failed, seed {args.seed}, limit {workload.limit_s} s per query")
    print(f"latency percentiles from {summary['samples']} samples, "
          f"{summary['beyond_p90']} beyond p90")
    for name, metric in metrics.items():
        print(f"  {name:56s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; prints every metric by name."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", args.out],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(f"  correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(BENCH_DIR / "results"))
    args = parser.parse_args(argv)
    if not (SRC / "eulermeasure" / "cli.py").is_file():
        print(f"no program source at {SRC / 'eulermeasure'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
