"""Every invariant check registered in eulermeasure.verify, one test each.

An invariant is written once, in ``verify.CHECKS``; ``eulermeasure verify``
and this module run the same functions.  A failing check's counterexample
is the asserted value.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from eulermeasure import verify
from eulermeasure.verify import CHECKS


def test_registry_names_are_unique():
    keys = [(scope, name) for scope, name, _ in CHECKS]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize(
    "check", [fn for _, _, fn in CHECKS], ids=[f"{scope}.{name}" for scope, name, _ in CHECKS]
)
def test_invariant(check):
    assert check() is None


def test_mobius_identity_reports_a_wrong_block_count_sum(monkeypatch):
    # one wrong mu(0,pi) on a 3-element partition breaks the coefficient of x^1
    mobius = verify.mobius_bottom
    monkeypatch.setattr(verify, "mobius_bottom",
                        lambda pi: mobius(pi) + (pi.blocks == ((1, 2, 3),)))
    check = {(scope, name): fn for scope, name, fn in CHECKS}[
        ("partition_combinatorics", "mobius_identity")]
    detail = check()
    assert detail == "k=3: sums by block count [0, 3, -3, 1] != x(x-1)..(x-k+1) [0, 2, -3, 1]"


def test_verify_timing_tool_runs():
    root = pathlib.Path(__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, str(root / "tools" / "verify_timing.py"),
                          "--first", str(root), "--second", str(root),
                          "--rounds", "1", "--repeat", "1"],
                         capture_output=True, text=True, timeout=300, check=True)
    table = json.loads(out.stdout)
    assert list(table["scopes"]) == list(verify.SCOPES)
    assert list(table["checks"]) == [f"{scope}.{name}" for scope, name, _ in CHECKS]
    for row in [table["total"], *table["scopes"].values(), *table["checks"].values()]:
        assert row["first_ms"] >= 0 and row["second_ms"] >= 0
    assert table["total"]["first_ms"] >= max(r["first_ms"] for r in table["scopes"].values())
