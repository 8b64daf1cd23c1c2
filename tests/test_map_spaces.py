import itertools
from fractions import Fraction

import pytest

from eulermeasure import map_spaces
from eulermeasure.errors import (
    InputError,
    InternalCheckError,
    ResourceLimitError,
    UnsupportedDomainError,
)
from eulermeasure.exact_series import Polynomial, RationalFunction
from eulermeasure.map_spaces import (
    affine_pair_space,
    finite_map_count,
    hedral_map_measure,
    map_pair_count,
    map_pair_measure,
    schanuel_measure,
)
from eulermeasure.partition_combinatorics import gen_binomial
from eulermeasure.setparse import parse_set_expression as parse

F = Fraction


def rf(num, den):
    return RationalFunction(Polynomial(tuple(F(c) for c in num)), Polynomial(tuple(F(c) for c in den)))


def naive_pair_count(bsize, k):
    """Literal oracle: enumerate ordered pairs of value sequences."""

    def breakpoints(seq):
        mask = set()
        for i in range(k):
            prev, at_bp, after = seq[2 * i], seq[2 * i + 1], seq[2 * i + 2]
            if not (at_bp == prev and after == prev):
                mask.add(i)
        return frozenset(mask)

    maps = list(itertools.product(range(bsize), repeat=2 * k + 1))
    full = frozenset(range(k))
    count = 0
    for f in maps:
        for g in maps:
            if f != g and breakpoints(f) | breakpoints(g) == full:
                count += 1
    assert count % 2 == 0
    return count // 2


class TestFiniteMapCount:
    def test_two_valued_counts(self):
        assert [finite_map_count(2, k) for k in range(4)] == [2, 6, 18, 54]

    def test_constant_maps(self):
        assert finite_map_count(2, 0) == 2
        assert finite_map_count(5, 0, mode="brute") == 5

    def test_three_valued_one_breakpoint(self):
        assert finite_map_count(3, 1, mode="brute") == 24

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            finite_map_count(10, 5, mode="brute", cap=1000)

    def test_bad_mode(self):
        with pytest.raises(InputError):
            finite_map_count(2, 1, mode="magic")


class TestHedralMapMeasure:
    def test_interval_to_two_points(self):
        res = hedral_map_measure(parse("(0,1)"), 2)
        assert res.value == F(1, 2)
        assert res.series.closed_form == rf([2], [1, 3])
        assert res.series.prefix.coefficients[:4] == (2, -6, 18, -54)

    def test_two_component_domain(self):
        res = hedral_map_measure(parse("(0,1) u (2,3)"), 2)
        assert res.value == F(1, 4)
        assert res.counts[:3] == (4, 12, 36)

    def test_single_valued_codomain(self):
        res = hedral_map_measure(parse("(0,1)"), 1)
        assert res.value == 1
        assert res.series.prefix.coefficients[:3] == (1, 0, 0)

    def test_rejects_point_pieces(self):
        for expr in ("{0} u (0,1)", "(0,1) u {5}", "{1}"):
            with pytest.raises(UnsupportedDomainError):
                hedral_map_measure(parse(expr), 2)


class TestMapPairs:
    @pytest.mark.parametrize("bsize", [2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_counts_match_literal_pair_enumeration(self, bsize, k):
        assert map_pair_count(bsize, k) == naive_pair_count(bsize, k)

    def test_pair_of_constants(self):
        assert map_pair_count(2, 0) == 1

    def test_measure(self):
        res = map_pair_measure(2)
        assert res.value == F(-1, 8)
        assert res.counts[:4] == (1, 27, 441, 6723)
        # (1/2)(b^2/(1+(b^4-1)t) - b/(1+(b^2-1)t)) at b=2
        assert res.series.closed_form == rf([1, -9], [1, 18, 45])
        # binom(1/b, 2) is the second route; for b >= 4 the 4d-2 window
        # alone (k <= 6, b^13 maps) would exceed the default enumeration cap
        values = (F(0), F(-1, 8), F(-1, 9), F(-3, 32), F(-2, 25))
        for bsize, value in enumerate(values, start=1):
            res = map_pair_measure(bsize)
            assert res.value == value == gen_binomial(F(1, bsize), 2)
            assert res.routes == {"series_regularization": value, "generalized_binomial": value}

    @pytest.mark.parametrize("terms", range(3, 10))
    def test_counts_only_what_the_certificate_needs(self, terms, monkeypatch):
        asked = []

        def counting(bsize, k, cap=None):
            asked.append(k)
            return map_pair_count(bsize, k, cap)

        monkeypatch.setattr(map_spaces, "map_pair_count", counting)
        res = map_pair_measure(2, terms=terms)
        assert res.value == F(-1, 8)
        assert asked == [0, 1, 2, 3] and res.counts == (1, 27, 441, 6723)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            map_pair_count(2, 12, cap=1000)


class TestAffinePairSpace:
    def test_closed_interval(self):
        sketch = affine_pair_space(parse("[0,1]"))
        assert sketch.measure == 1
        assert sketch.dimension_counts() == {0: 4, 1: 4, 2: 1}

    def test_two_intervals(self):
        sketch = affine_pair_space(parse("[0,1] u [2,3]"))
        assert sketch.measure == 2

    def test_single_point(self):
        sketch = affine_pair_space(parse("{0}"))
        assert sketch.measure == 1
        assert sketch.dimensions == (0,)

    def test_mixed_components(self):
        sketch = affine_pair_space(parse("[0,1] u {2} u [3,4]"))
        assert sketch.measure == 3

    def test_rejects_non_compact(self):
        for expr in ("(0,1)", "[0,1)", "[0,1] u (2,3)", "[0,inf)"):
            with pytest.raises(UnsupportedDomainError):
                affine_pair_space(parse(expr))


class TestSchanuelMeasure:
    @pytest.mark.parametrize(
        "chi_b,expected",
        [(0, F(0)), (1, F(1)), (-1, F(-1)), (2, F(1, 2)), (-2, F(-1, 2)), (3, F(1, 3))],
    )
    def test_symbolic(self, chi_b, expected):
        res = schanuel_measure(chi_b)
        assert res.value == expected

    def test_zero_measure_series_vanishes(self):
        res = schanuel_measure(0)
        assert all(c == 0 for c in res.series.prefix.coefficients)

    def test_concrete_codomain(self):
        res = schanuel_measure(parse("[0,1] u [2,3]"))
        assert res.chi_codomain == 2
        assert res.value == F(1, 2)
        assert res.subset_counts[:3] == (2, 8, 32)
        assert res.counts[:3] == (2, 6, 18)

    def test_three_component_codomain(self):
        res = schanuel_measure(parse("[0,1] u [2,3] u [4,5]"))
        assert res.value == F(1, 3)

    def test_concrete_requires_compact(self):
        with pytest.raises(UnsupportedDomainError):
            schanuel_measure(parse("(0,1)"))

    @pytest.mark.parametrize("chi_b", range(-3, 4))
    def test_counts_by_inversion_of_subset_counts(self, chi_b):
        res = schanuel_measure(chi_b, terms=6)
        assert res.subset_counts == tuple(chi_b ** (2 * k + 1) for k in range(7))
        assert res.counts == tuple(chi_b * (chi_b ** 2 - 1) ** k for k in range(7))

    def test_counts_must_expand_the_closed_form(self):
        with pytest.raises(InternalCheckError, match="closed form"):
            map_spaces._series_for_base(2, 1, 3, lambda k: 2 * 5 ** k)
