import json
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from eulermeasure import choose_construction, fibonacci_subsets
from eulermeasure.errors import ResourceLimitError
from eulermeasure.exact_series import Polynomial, RationalFunction
from eulermeasure.fibonacci_subsets import (
    enumerate_placements,
    extended_fibonacci,
    fibonacci_measure,
    parity_length,
    parity_polynomial,
    parity_strata_coefficient,
    placement_gap_measures,
)
from eulermeasure.interval_sets import OpenInterval, Point, PolyhedralSet1D, ext, points
from eulermeasure.setparse import parse_set_expression as parse
from eulermeasure.verify import (
    FIB_FAMILY,
    random_piece_set,
    random_polyhedral_set,
    valid_subsets_by_all_pairs,
)

F = Fraction


def _unbuilt(*args):
    raise AssertionError("a placement was built")


class TestExtendedFibonacci:
    def test_standard_values(self):
        assert [extended_fibonacci(n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]

    def test_negative_indices(self):
        assert extended_fibonacci(-1) == 1
        assert extended_fibonacci(-2) == -1
        assert extended_fibonacci(-3) == 2
        assert extended_fibonacci(-4) == -3

    def test_recurrence_everywhere(self):
        for n in range(-10, 10):
            assert extended_fibonacci(n + 1) == extended_fibonacci(n) + extended_fibonacci(n - 1)


class TestParityStrata:
    def test_open_interval_all_vanish(self):
        p = parse("(0,1)")
        for k in range(6):
            assert parity_strata_coefficient(p, k) == 0

    def test_single_point(self):
        p = parse("{0}")
        assert parity_strata_coefficient(p, 0) == 0  # chi(P) = 1 is odd
        assert parity_strata_coefficient(p, 1) == 1

    def test_two_points(self):
        p = parse("{0,1}")
        assert parity_strata_coefficient(p, 0) == 1  # chi(P) = 2 is even
        assert parity_strata_coefficient(p, 1) == 0
        assert parity_strata_coefficient(p, 2) == 1

    def test_gap_measures_walk(self):
        p = parse("[0,1]")
        # selecting only the left endpoint leaves gaps (), (0,1]&... of
        # measures 0 and 0: the stratum is kept
        placements = {pd.counts: pd for pd in enumerate_placements(p, 1)}
        left = placements[(1, 0, 0)]
        assert placement_gap_measures(p, left) == [0, 0]
        inside = placements[(0, 1, 0)]
        assert placement_gap_measures(p, inside) == [0, 0]
        right = placements[(0, 0, 1)]
        assert placement_gap_measures(p, right) == [0, 0]
        assert parity_strata_coefficient(p, 1) == 1 + 1 - 1

    def test_cap(self, monkeypatch):
        # the ceiling counts placements, not k: 12 points at k = 11 have 12
        # placements, and k beyond the pieces has none
        twelve = points(range(12))
        assert parity_strata_coefficient(twelve, 11) == parity_polynomial(twelve)[11]
        assert parity_strata_coefficient(parse("(0,1)"), 11) == 0
        # 30 intervals at k = 10: 635,745,396 placements, refused unbuilt
        monkeypatch.setattr(choose_construction, "PlacementDescriptor", _unbuilt)
        thirty = parse(" u ".join(f"({2 * i},{2 * i + 1})" for i in range(30)))
        with pytest.raises(ResourceLimitError, match="parity_polynomial"):
            parity_strata_coefficient(thirty, 10)

    def test_more_pieces_than_the_recursion_limit(self):
        many = points(range(1200))
        assert parity_strata_coefficient(many, 1) == parity_polynomial(many)[1] == 0

    def test_no_valid_placement_beyond_piece_count(self):
        # the oracle behind parity_strata_coefficient returning 0 for k > pieces
        rng = random.Random(61)
        for _ in range(100):
            p = random_polyhedral_set(rng, 2)
            n = len(p.pieces)
            for k in range(n + 1, n + 4):
                assert not any(
                    all(g % 2 == 0 for g in placement_gap_measures(p, pd))
                    for pd in enumerate_placements(p, k)
                )


class TestFibonacciMeasure:
    def test_anchor_point(self):
        assert fibonacci_measure(parse("{0}")).value == 1

    def test_anchor_interval(self):
        assert fibonacci_measure(parse("(0,1)")).value == 0

    def test_anchor_two_points(self):
        res = fibonacci_measure(parse("{0,1}"))
        assert res.value == 2
        assert res.series.prefix.coefficients[:3] == (1, 0, 1)

    def test_series_is_its_own_closed_form(self):
        # no recurrence is fitted; the prefix is the certificate L + d for the
        # polynomial's order and length, 3 + 3, and any terms >= 0 shows part of it
        res = fibonacci_measure(parse("{0,1}"))
        assert res.series.recurrence is None
        assert res.series.closed_form == RationalFunction(Polynomial((1, 0, 1)), Polynomial((1,)))
        assert res.series.prefix.coefficients == (1, 0, 1) + (0,) * 3
        for terms in (0, 1):
            short = fibonacci_measure(parse("{0,1}"), terms)
            assert len(short.series.prefix) == terms + 1 and short.value == 2

    @pytest.mark.parametrize("chi,expr", sorted(FIB_FAMILY.items()))
    def test_family_matches_extended_fibonacci(self, chi, expr):
        p = parse(expr)
        assert p.euler_measure() == chi
        res = fibonacci_measure(p)
        assert res.value == extended_fibonacci(chi + 1) == res.expected

    def test_finite_exhaustive_oracle(self):
        rng = random.Random(43)
        sets = [points(range(n)) for n in range(8)]
        for _ in range(6):
            sets.append(points(sorted({F(rng.randint(-12, 12), 2) for _ in range(rng.randint(1, 6))})))
        for p in sets:
            oracle = valid_subsets_by_all_pairs(p)
            for k in range(len(p.pieces) + 1):
                assert parity_strata_coefficient(p, k) == oracle.get(k, 0)
            assert fibonacci_measure(p).value == sum(oracle.values())


class TestTransferMatrix:
    def test_matches_enumeration_oracle(self):
        rng = random.Random(71)
        unbounded = 0
        for _ in range(240):
            p = random_piece_set(rng, 7)
            unbounded += any(
                not (x.left.is_finite and x.right.is_finite)
                for x in p.pieces if isinstance(x, OpenInterval)
            )
            poly = parity_polynomial(p)
            assert len(poly) <= len(p.pieces) + 1
            for k in range(len(p.pieces) + 3):
                got = poly[k] if k < len(poly) else 0
                assert got == parity_strata_coefficient(p, k), (str(p), k)
        assert unbounded >= 50

    def test_length_walk_matches_the_polynomial(self):
        rng = random.Random(29)
        for _ in range(2000):
            p = random_piece_set(rng, 14)
            assert parity_length(p) == len(parity_polynomial(p)), str(p)

    def test_small_cases(self):
        assert parity_polynomial(parse("{}")) == [1]
        assert parity_polynomial(parse("{0,1}")) == [1, 0, 1]
        # [0,1]: the three 1-point strata of test_gap_measures_walk
        assert parity_polynomial(parse("[0,1]"))[:2] == [0, 1]
        assert not any(parity_polynomial(parse("(-inf,0) u (1,2)"))[1:])

    def test_default_path_does_not_enumerate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("placement enumeration on the default path")

        monkeypatch.setattr(fibonacci_subsets, "parity_strata_coefficient", refuse)
        monkeypatch.setattr(fibonacci_subsets, "enumerate_placements", refuse)
        for expr in ("{0,1,2,3} u (4,5) u (6,7) u (8,9) u (10,11)", "[0,1] u (2,inf)"):
            res = fibonacci_measure(parse(expr))
            assert res.value == res.expected


def _disjoint_pieces(kinds):
    return PolyhedralSet1D.from_pieces(
        Point(Fraction(2 * i)) if kind == "point" else OpenInterval(ext(2 * i), ext(2 * i + 1))
        for i, kind in enumerate(kinds)
    )


@pytest.mark.parametrize("kinds", [
    ["point"] * 400,
    ["open"] * 400,
    ["point", "open"] * 200,
    ["open"] * 12,
], ids=["400-points", "400-intervals", "400-alternating", "12-intervals"])
def test_many_pieces_with_default_knobs(kinds):
    p = _disjoint_pieces(kinds)
    assert len(p.pieces) == len(kinds)
    res = fibonacci_measure(p)
    assert res.value == res.expected == extended_fibonacci(p.euler_measure() + 1)


def test_fib_scaling_tool_runs():
    tool = pathlib.Path(__file__).resolve().parent.parent / "tools" / "fib_scaling.py"
    out = subprocess.run([sys.executable, str(tool), "--sizes", "2,3"],
                         capture_output=True, text=True, timeout=120, check=True)
    rows = json.loads(out.stdout)["rows"]
    kinds = ("points", "intervals", "alternating")
    assert [(row["kind"], row["pieces"]) for row in rows] == [(k, n) for k in kinds for n in (2, 3)]
    assert all(row["enumeration_fib_ms"] is not None for row in rows)
