import itertools
import random
from fractions import Fraction

import pytest

from eulermeasure.errors import ResourceLimitError
from eulermeasure.fibonacci_subsets import (
    enumerate_placements,
    extended_fibonacci,
    fibonacci_measure,
    parity_strata_coefficient,
    placement_gap_measures,
)
from eulermeasure.interval_sets import NEG_INF, POS_INF, ext, points
from eulermeasure.setparse import parse_set_expression as parse
from eulermeasure.verify import random_polyhedral_set

F = Fraction

FAMILY = {
    -3: "(0,1) u (2,3) u (4,5)",
    -2: "(0,1) u (2,3)",
    -1: "(0,1)",
    0: "{0} u (1,2)",
    1: "[0,1]",
    2: "[0,1] u [2,3]",
    3: "{0,1,2}",
    4: "{0,1,2,3}",
}


def valid_subsets_by_all_pairs(p):
    """Exhaustive oracle over finite P, checking every pair of anchors
    from S u {-inf, +inf} with the actual set operations."""
    pts = [piece.at for piece in p.pieces]
    by_size = {}
    for r in range(len(pts) + 1):
        for chosen in itertools.combinations(pts, r):
            rest = p.difference(points(chosen))
            bounds = [NEG_INF] + [ext(q) for q in sorted(chosen)] + [POS_INF]
            ok = all(
                rest.restrict_open(bounds[i], bounds[j]).euler_measure() % 2 == 0
                for i in range(len(bounds))
                for j in range(i + 1, len(bounds))
            )
            if ok:
                by_size[r] = by_size.get(r, 0) + 1
    return by_size


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

    def test_cassini(self):
        for n in range(-8, 9):
            lhs = extended_fibonacci(n + 1) * extended_fibonacci(n - 1) - extended_fibonacci(n) ** 2
            assert lhs == (-1) ** n


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

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            parity_strata_coefficient(parse("(0,1)"), 11)

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

    @pytest.mark.parametrize("chi,expr", sorted(FAMILY.items()))
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

    def test_consecutive_equals_all_pairs_on_finite_sets(self):
        rng = random.Random(47)
        for _ in range(8):
            p = points(sorted({F(rng.randint(-12, 12), 2) for _ in range(rng.randint(1, 6))}))
            oracle = valid_subsets_by_all_pairs(p)
            for k in range(len(p.pieces) + 1):
                consecutive = sum(
                    1
                    for pd in enumerate_placements(p, k)
                    if all(g % 2 == 0 for g in placement_gap_measures(p, pd))
                )
                assert consecutive == oracle.get(k, 0)

    def test_depends_only_on_chi(self):
        groups = {
            -1: ["(0,1)", "(0,1) u (2,3) u {5}", "(-inf,0)"],
            0: ["{0} u (1,2)", "{}", "[0,1] u (2,3)"],
            1: ["[0,1]", "{7}", "{0,1} u (2,3)"],
            2: ["{0,1}", "[0,1] u [2,3]", "{0,1,2} u (3,4)"],
        }
        for chi, exprs in groups.items():
            values = set()
            for expr in exprs:
                p = parse(expr)
                assert p.euler_measure() == chi
                values.add(fibonacci_measure(p).value)
            assert len(values) == 1
