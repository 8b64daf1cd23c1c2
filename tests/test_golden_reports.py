"""CLI reports compared byte for byte with tests/golden/cli_reports.json.

Each case runs once as a text report and once with --json; the exit
code, stdout and stderr of both runs are recorded.  After a deliberate
report change, regenerate the file with

    PYTHONPATH=src python tests/test_golden_reports.py

and review its diff.
"""

import contextlib
import io
import json
import pathlib

import pytest

from eulermeasure import exact_series
from eulermeasure.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_reports.json"

README_SESSION = [
    ["measure", "(0,1) u (2,3)"],
    ["choose", "(0,1) u (2,3)", "-k", "3"],
    ["powerset", "(0,1)"],
    ["gizmo", "(0,1)", "--ks", "2"],
    ["gizmo", "(0,1)", "--ks", "2,2"],
    ["gizmo", "(0,1) u (2,3) u (4,5)", "--ks", "2,3"],
    ["mapspace", "(0,1)", "--finite", "2"],
    ["mapspace", "(0,1)", "--finite", "2", "--pairs"],
    ["mapspace", "(0,1)", "--b", "[0,1] u [2,3]"],
    ["mapspace", "(0,1)", "--chib", "-2"],
    ["fib", "{0,1}"],
]

CASES = README_SESSION + [
    ["powerset", "(0,1)", "--terms", "0"],
    ["gizmo", "(0,1)", "--ks", "2,2", "--terms", "1"],
    ["fib", "{0,1}", "--terms", "1"],
    ["mapspace", "(0,1)", "--chib", "0"],
    ["choose", "{0} u (1,2) u {3} u (4,5)", "-k", "3", "--cells"],
]


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "exit_code": code,
        "stdout": out.getvalue().splitlines(),
        "stderr": err.getvalue().splitlines(),
    }


def record(argv: list[str]) -> dict:
    return {"argv": argv, "text": _run(argv), "json": _run(argv + ["--json"])}


def _golden() -> dict:
    return {" ".join(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_report_matches_golden(argv):
    assert record(argv) == _golden()[" ".join(argv)]


def test_reports_never_reach_the_gcd(monkeypatch):
    # every closed form on the CLI path is a FactoredForm, reduced by
    # construction: no polynomial gcd is taken
    def unreachable(*args):
        raise AssertionError("the CLI path reached RationalFunction's reduction")

    monkeypatch.setattr(exact_series, "_integer_gcd", unreachable)
    monkeypatch.setattr(exact_series, "poly_gcd", unreachable)
    golden = _golden()
    assert [record(argv) for argv in CASES] == [golden[" ".join(argv)] for argv in CASES]


def test_golden_file_lists_exactly_the_cases():
    assert list(_golden()) == [" ".join(argv) for argv in CASES]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([record(argv) for argv in CASES], indent=1) + "\n")
