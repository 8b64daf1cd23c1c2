import itertools
import math
import random
from fractions import Fraction

import pytest

from eulermeasure import choose_construction, limits
from eulermeasure.choose_construction import (
    CellSketch,
    cell_counts,
    choose_cells,
    enumerate_placements,
    ordered_distinct_measure,
)
from eulermeasure.errors import InputError, ResourceLimitError
from eulermeasure.interval_sets import Point, points
from eulermeasure.partition_combinatorics import (
    falling_factorial,
    gen_binomial,
    integer_binomial,
    mobius_bottom,
    partitions_of,
)
from eulermeasure.setparse import parse_set_expression as parse
from eulermeasure.verify import random_piece_set, random_polyhedral_set

F = Fraction


def _unbuilt(*args):
    raise AssertionError("a placement was built")


FAMILY = [
    "{}",
    "{0}",
    "{0,1,2}",
    "(0,1)",
    "(0,1) u (2,3)",
    "(0,1) u (2,3) u (4,5) u (6,7)",
    "[0,1]",
    "{-5} u (0,1) u {2,3}",
    "{0,1} u (2,3) u (4,5) u (6,7)",
    "(-inf,0) u {1,2,3,4}",
]


class TestCellSketch:
    def test_measure_alternates_by_dimension(self):
        sketch = CellSketch((0, 0, 1, 2, 3, 3))
        assert sketch.measure == 1 + 1 - 1 + 1 - 1 - 1 == 0
        assert sketch.dimension_counts() == {0: 2, 1: 1, 2: 1, 3: 2}


class TestChooseCells:
    def test_two_intervals_choose_three(self):
        sketch = choose_cells(parse("(0,1) u (2,3)"), 3)
        assert sketch.dimensions == (3, 3, 3, 3)
        assert sketch.measure == -4 == gen_binomial(-2, 3)

    def test_three_points_choose_two(self):
        sketch = choose_cells(parse("{1,2,3}"), 2)
        assert sketch.dimensions == (0, 0, 0)
        assert sketch.measure == 3

    def test_interval_choose_two(self):
        sketch = choose_cells(parse("(0,1)"), 2)
        assert sketch.dimensions == (2,)
        assert sketch.measure == 1 == gen_binomial(-1, 2)

    def test_choose_zero(self):
        sketch = choose_cells(parse("{}"), 0)
        assert sketch.dimensions == (0,)
        assert sketch.measure == 1

    def test_provenance_counts_sum_to_k(self):
        sketch = choose_cells(parse("{-5} u (0,1) u {2,3}"), 3)
        for counts in sketch.provenance:
            assert sum(counts) == 3

    def test_point_pieces_carry_at_most_one(self):
        a = parse("{0,1} u (2,3)")
        for counts in choose_cells(a, 3).provenance:
            assert counts[0] <= 1 and counts[1] <= 1

    def test_cap(self, monkeypatch):
        # the ceiling counts cells, not k: one cell at k = 13 is listed, the
        # 17,383,860 cells of 16 intervals at k = 12 are refused unlisted
        assert choose_cells(parse("(0,1)"), 13).measure == gen_binomial(-1, 13)
        monkeypatch.setattr(choose_construction, "PlacementDescriptor", _unbuilt)
        sixteen = parse(" u ".join(f"({2 * i},{2 * i + 1})" for i in range(16)))
        with pytest.raises(ResourceLimitError, match="cell_counts"):
            choose_cells(sixteen, 12)

    def test_more_pieces_than_the_recursion_limit(self):
        # 1200 placements of 1200 entries each, far under the ceiling
        many = points(range(1200))
        sketch = choose_cells(many, 1)
        assert sketch.dimension_counts() == cell_counts(many, 1) == {0: 1200}
        assert sketch.provenance[0] == (0,) * 1199 + (1,)
        assert sketch.provenance[-1] == (1,) + (0,) * 1199


class TestPlacementOrder:
    def test_lexicographic_like_the_recursive_walk(self):
        # the walk tried each piece's counts in ascending order, the later
        # pieces' inside: the count tuples of product, filtered by their sum
        rng = random.Random(31)
        for _ in range(150):
            a = random_piece_set(rng, 6)
            k = rng.randint(0, 5)
            caps = [1 if isinstance(piece, Point) else k for piece in a.pieces]
            expected = [c for c in itertools.product(*(range(cap + 1) for cap in caps))
                        if sum(c) == k]
            assert [pd.counts for pd in enumerate_placements(a, k)] == expected


class TestCellCounts:
    @pytest.mark.parametrize("expr", FAMILY)
    def test_family_matches_cell_listing(self, expr):
        a = parse(expr)
        for k in range(7):
            assert cell_counts(a, k) == choose_cells(a, k).dimension_counts()

    def test_random_sets_match_cell_listing(self):
        rng = random.Random(23)
        for trial in range(150):
            a = random_piece_set(rng, 7) if trial % 2 else random_polyhedral_set(rng, 4)
            for k in range(7):
                assert cell_counts(a, k) == choose_cells(a, k).dimension_counts(), (str(a), k)

    def test_points_only_and_empty(self):
        assert cell_counts(parse("{0,1,2}"), 2) == {0: 3}
        assert cell_counts(parse("{0,1,2}"), 4) == {}
        assert cell_counts(parse("{}"), 0) == {0: 1}

    def test_beyond_the_listing_cap(self):
        # 40 intervals: every cell has dimension k, binom(39 + k, k) of them
        a = parse(" u ".join(f"({2 * i},{2 * i + 1})" for i in range(40)))
        for k in (12, 10_000):
            counts = cell_counts(a, k)
            assert counts == {k: math.comb(39 + k, k)}
            assert (-1) ** k * counts[k] == integer_binomial(-40, k)

    def test_negative_k_is_input_error(self):
        with pytest.raises(InputError, match="k must be at least 0, got -1"):
            cell_counts(parse("(0,1)"), -1)


class TestBinomialIdentity:
    @pytest.mark.parametrize("expr", FAMILY)
    def test_measure_equals_binomial(self, expr):
        a = parse(expr)
        chi = a.euler_measure()
        for k in range(7):
            assert choose_cells(a, k).measure == gen_binomial(chi, k)

    def test_finite_counts_against_enumeration(self):
        rng = random.Random(19)
        for _ in range(15):
            values = sorted({F(rng.randint(-20, 20), 2) for _ in range(rng.randint(0, 6))})
            a = points(values)
            for k in range(len(values) + 2):
                oracle = sum(1 for _ in itertools.combinations(values, k))
                assert choose_cells(a, k).measure == oracle == math.comb(len(values), k)


class TestOrderedDistinct:
    def test_chi_minus_two(self):
        assert ordered_distinct_measure(parse("(0,1) u (2,3)"), 3) == -24

    def test_three_points_pairs(self):
        assert ordered_distinct_measure(parse("{1,2,3}"), 2) == 6

    def test_k_zero(self):
        assert ordered_distinct_measure(parse("(0,1) u {4}"), 0) == 1

    @pytest.mark.parametrize("expr", FAMILY)
    def test_relations(self, expr):
        a = parse(expr)
        chi = a.euler_measure()
        for k in range(7):
            ordered = ordered_distinct_measure(a, k)
            assert ordered == math.factorial(k) * choose_cells(a, k).measure
            assert ordered == falling_factorial(chi, k)

    def test_block_types_match_set_partition_sum(self):
        rng = random.Random(67)
        for k in range(11):
            pis = partitions_of(k)
            for _ in range(3):
                a = random_polyhedral_set(rng)
                chi = a.euler_measure()
                by_partition = sum(mobius_bottom(pi) * chi ** pi.block_count for pi in pis)
                assert ordered_distinct_measure(a, k) == by_partition

    def test_cap(self, monkeypatch):
        # 56 integer partitions of 11, far below the ceiling
        assert ordered_distinct_measure(parse("(0,1)"), 11) == falling_factorial(-1, 11)
        # p(5) = 7 partitions of 5 entries each: 35 entries
        monkeypatch.setattr(limits, "MAX_ENUMERATION", 34)
        with pytest.raises(ResourceLimitError, match="falling_factorial"):
            ordered_distinct_measure(parse("(0,1)"), 5)
