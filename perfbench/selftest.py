"""Self-tests of the benchmark's own machinery; exits nonzero on a failure.

    python3 perfbench/selftest.py

Checks the oracle against the PAPER headline values, the tracer's
self-time arithmetic and restoration, the failure accounting (exit codes,
exception classes, the per-query timer), and that BENCHMARK.json names
exactly the metrics run.py prints.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import Query  # noqa: E402


def check_failure_accounting():
    from eulermeasure import cli, errors

    timer = run.QueryTimer()

    def outcome(**kwargs):
        query = Query("probe", {}, lambda answer: None, **kwargs)
        return run.execute(query, 0.2, timer, cli, errors)[0]

    def raises(exc):
        def call():
            raise exc
        return call

    cases = {
        "input": outcome(argv=["measure", "(0,1"]),
        "resource": outcome(call=raises(errors.ResourceLimitError("cap"))),
        "regularization": outcome(argv=["gizmo", "(0,1) u (2,3) u (4,5)", "--ks", "2,3"]),
        "internal": outcome(call=raises(errors.InternalCheckError("routes"))),
        "traceback": outcome(call=raises(RecursionError("deep"))),
        "timeout": outcome(call=lambda: time.sleep(5)),
        "ok": outcome(argv=["measure", "(0,1) u (2,3)", "--json"]),
    }
    for expected, got in cases.items():
        if got != expected:
            raise AssertionError(f"failure accounting: expected {expected}, got {got}")


def check_benchmark_spec():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if per_layer != layers.metric_units():
        raise AssertionError("BENCHMARK.json per_layer differs from layers.metric_units()")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if end_to_end != run.END_TO_END_UNITS:
        raise AssertionError("BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS")
    names = [w["name"] for w in spec["workloads"]]
    from workloads import WORKLOADS

    if sorted(names) != sorted(WORKLOADS) or sorted(names) != sorted(run.WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from the workload registry")


def main() -> int:
    oracle.self_test()
    tracer.self_test()
    check_failure_accounting()
    check_benchmark_spec()
    print("benchmark self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
