"""The enumeration ceiling: every brute-force oracle counts its entries
(candidates times the length of each) and calls limits.check_enumeration
before it builds its first candidate.

Each case is an oracle call with its exact entry count, its value from
the closed form that counts without enumerating, and the name through
which its module builds candidates.  The ceiling is lowered to the
call's own size, so no test enumerates anything large.
"""

import ast
import json
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest

from eulermeasure import (
    choose_construction,
    limits,
    map_spaces,
    partition_combinatorics,
    power_gizmos,
    verify,
)
from eulermeasure.choose_construction import choose_cells, enumerate_placements, ordered_distinct_measure
from eulermeasure.errors import ResourceLimitError
from eulermeasure.fibonacci_subsets import parity_polynomial, parity_strata_coefficient
from eulermeasure.interval_sets import points
from eulermeasure.map_spaces import brute_map_count, finite_map_count, finite_pair_count, map_pair_count
from eulermeasure.partition_combinatorics import (
    SetPartition,
    falling_factorial,
    gen_binomial,
    iterated_binomial,
    partition_types,
    partitions_of,
)
from eulermeasure.power_gizmos import (
    GizmoSpec,
    gizmo_brute_force,
    gizmo_support_census,
    gizmo_support_count,
)
from eulermeasure.setparse import parse_set_expression as parse

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "eulermeasure"

TWO_INTERVALS = parse("(0,1) u (2,3)")
MIXED = parse("{0} u (1,2) u {3,4}")
THREE_POINTS = points(range(3))


def _unbuilt(*args):
    raise AssertionError("a candidate was built")


def _break_placements(monkeypatch):
    monkeypatch.setattr(choose_construction, "PlacementDescriptor", _unbuilt)


def _break_set_partitions(monkeypatch):
    monkeypatch.setattr(SetPartition, "_canonical", _unbuilt)


def _break_integer_partitions(monkeypatch):
    monkeypatch.setattr(partition_combinatorics, "math", SimpleNamespace())


def _break_module_itertools(module, name):
    return lambda monkeypatch: monkeypatch.setattr(
        module, "itertools", SimpleNamespace(**{name: _unbuilt}))


# (id, call, entries, closed-form value, how to stop the first candidate)
ORACLES = [
    # 4 placements of 3 points on 2 intervals, 2 counts each
    ("choose_cells", lambda: choose_cells(TWO_INTERVALS, 3).measure, 8,
     gen_binomial(-2, 3), _break_placements),
    # verify's consecutive_gap_lemma enumerates placements directly
    ("enumerate_placements", lambda: len(list(enumerate_placements(TWO_INTERVALS, 3))), 8,
     sum(choose_construction.cell_counts(TWO_INTERVALS, 3).values()), _break_placements),
    # 7 placements of 2 points on 4 pieces
    ("parity_strata_coefficient", lambda: parity_strata_coefficient(MIXED, 2), 28,
     parity_polynomial(MIXED)[2], _break_placements),
    # Bell(4) = 15 partitions of 4 elements
    ("partitions_of", lambda: len(partitions_of(4)), 60, 15, _break_set_partitions),
    # p(5) = 7 integer partitions of 5
    ("partition_types", lambda: sum(ways for _, ways in partition_types(5)), 35, 52,
     _break_integer_partitions),
    ("ordered_distinct_measure", lambda: ordered_distinct_measure(parse("(0,1)"), 5), 35,
     falling_factorial(-1, 5), _break_integer_partitions),
    # 4 subsets and 6 pairs of them, over 2 points
    ("gizmo_support_census", lambda: sum(gizmo_support_census(GizmoSpec((2,)), 2).values()), 20,
     iterated_binomial(4, (2,)), _break_module_itertools(power_gizmos, "combinations")),
    ("gizmo_brute_force", lambda: gizmo_brute_force(GizmoSpec((2,)), 2), 20,
     gizmo_support_count(GizmoSpec((2,)), 2), _break_module_itertools(power_gizmos, "combinations")),
    # 2^3 sequences of 3 values, and 2 breakpoint masks
    ("brute_map_count", lambda: brute_map_count(2, 1), 26, finite_map_count(2, 1),
     _break_module_itertools(map_spaces, "product")),
    ("map_pair_count", lambda: map_pair_count(2, 1), 26, finite_pair_count(2, 1),
     _break_module_itertools(map_spaces, "product")),
    # the 2^3 subsets of 3 points, each checked on binom(r + 2, 2) pairs
    # of bounds that restrict the 3 points: 38 pairs, 114 entries
    ("valid_subsets_by_all_pairs",
     lambda: tuple(verify.valid_subsets_by_all_pairs(THREE_POINTS).get(k, 0) for k in range(4)),
     114, tuple(parity_polynomial(THREE_POINTS)), _break_module_itertools(verify, "combinations")),
]


@pytest.mark.parametrize("call,entries,value,stop", [case[1:] for case in ORACLES],
                         ids=[case[0] for case in ORACLES])
class TestEnumerationCeiling:
    def test_computes_at_the_ceiling(self, call, entries, value, stop, monkeypatch):
        monkeypatch.setattr(limits, "MAX_ENUMERATION", entries)
        assert call() == value

    def test_refused_one_entry_above_before_any_candidate(self, call, entries, value, stop,
                                                          monkeypatch):
        monkeypatch.setattr(limits, "MAX_ENUMERATION", entries - 1)
        stop(monkeypatch)
        with pytest.raises(ResourceLimitError) as err:
            call()
        assert f"{entries} entries or more, above the enumeration ceiling of {entries - 1}" \
            in str(err.value)


def test_no_function_takes_a_cap():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                names = [a.arg for a in node.args.args + node.args.kwonlyargs]
                assert "cap" not in names, f"{path.name}: {getattr(node, 'name', 'lambda')}"


def test_oracle_scaling_tool_runs():
    tool = pathlib.Path(__file__).resolve().parent.parent / "tools" / "oracle_scaling.py"
    out = subprocess.run([sys.executable, str(tool), "--first", "1"],
                         capture_output=True, text=True, timeout=120, check=True)
    table = json.loads(out.stdout)
    assert table["ceiling"] == limits.MAX_ENUMERATION
    # every oracle but those that only wrap another
    wrappers = {"enumerate_placements", "ordered_distinct_measure", "gizmo_brute_force"}
    assert [row["oracle"] for row in table["rows"]] == [
        case[0] for case in ORACLES if case[0] not in wrappers]
    for row in table["rows"]:
        assert row["status"] == "ok" and 0 < row["entries"] <= limits.MAX_ENUMERATION
        assert row["seconds"] >= 0 and row["peak_rss_mb"] >= row["rss_before_mb"] > 0
