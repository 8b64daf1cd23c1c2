import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from eulermeasure import map_spaces
from eulermeasure.errors import (
    InputError,
    InternalCheckError,
    ResourceLimitError,
    UnsupportedDomainError,
)
from eulermeasure.exact_series import (
    Construction,
    Polynomial,
    RationalFunction,
    binomial_closed_form,
    regularize,
)
from eulermeasure.map_spaces import (
    affine_pair_space,
    brute_map_count,
    finite_map_count,
    finite_pair_count,
    hedral_map_measure,
    map_pair_count,
    map_pair_measure,
    schanuel_measure,
)
from eulermeasure.partition_combinatorics import gen_binomial
from eulermeasure.setparse import parse_set_expression as parse

F = Fraction


def _unbuilt(*args):
    raise AssertionError("a value sequence was built")


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


def enumerated_mask_counts(bsize, k):
    """map_spaces._breakpoint_mask_counts as it enumerated before its
    depth-first walk: every value sequence from itertools.product, its
    mask read off breakpoint by breakpoint."""
    counts = [0] * (1 << k)
    for seq in itertools.product(range(bsize), repeat=2 * k + 1):
        mask = 0
        for i in range(k):
            prev, at_bp, after = seq[2 * i], seq[2 * i + 1], seq[2 * i + 2]
            if not (at_bp == prev and after == prev):
                mask |= 1 << i
        counts[mask] += 1
    return counts


@pytest.mark.parametrize("bsize,k", [(b, k) for b in range(1, 5) for k in range(4)]
                         + [(1, k) for k in range(4, 13)])
def test_mask_walk_matches_the_enumeration(bsize, k):
    assert map_spaces._breakpoint_mask_counts(bsize, k) == enumerated_mask_counts(bsize, k)


class TestFiniteMapCount:
    def test_two_valued_counts(self):
        assert [finite_map_count(2, k) for k in range(4)] == [2, 6, 18, 54]

    def test_constant_maps(self):
        assert finite_map_count(2, 0) == 2
        assert brute_map_count(5, 0) == 5

    def test_three_valued_one_breakpoint(self):
        assert brute_map_count(3, 1) == 24

    def test_cap(self, monkeypatch):
        # 10^11 sequences of 11 values; one map into one point, but 2^40
        # breakpoint masks: each refused before a sequence is built
        monkeypatch.setattr(map_spaces, "itertools", SimpleNamespace(product=_unbuilt))
        for bsize, k in ((10, 5), (1, 40)):
            with pytest.raises(ResourceLimitError, match="finite_map_count"):
                brute_map_count(bsize, k)


class TestHedralMapMeasure:
    def test_interval_to_two_points(self):
        res = hedral_map_measure(parse("(0,1)"), 2)
        assert res.value == F(1, 2)
        assert res.series.closed_form == rf([2], [1, 3])
        # the certificate: order 1 against bound 1, so L + d = 2 coefficients
        assert res.series.prefix.coefficients == (2, -6)
        longer = hedral_map_measure(parse("(0,1)"), 2, 3)
        assert longer.series.prefix.coefficients == (2, -6, 18, -54)

    def test_two_component_domain(self):
        res = hedral_map_measure(parse("(0,1) u (2,3)"), 2)
        assert res.value == F(1, 4)
        assert res.counts[:3] == (4, 12, 36)

    def test_single_valued_codomain(self):
        res = hedral_map_measure(parse("(0,1)"), 1)
        assert res.value == 1
        assert res.series.prefix.coefficients == (1, 0)
        # (b^2 - 1)^k vanishes for k >= 1, so the series is the constant 1 on
        # any domain: order bound 1, whatever the number of pieces
        res = hedral_map_measure(parse("(0,1) u (2,3) u (4,5)"), 1)
        assert res.value == 1 and res.series.order_bound == 1
        assert res.series.prefix.coefficients == (1, 0) and res.counts == (1, 0)

    def test_empty_domain(self):
        # the constant series 1 has order 1, so its certificate is 1 + 1 coefficients
        res = hedral_map_measure(parse("{}"), 2)
        assert res.value == 1 and res.series.prefix.coefficients == (1, 0)

    def test_rejects_point_pieces(self):
        for expr in ("{0} u (0,1)", "(0,1) u {5}", "{1}"):
            with pytest.raises(UnsupportedDomainError):
                hedral_map_measure(parse(expr), 2)


class TestMapPairs:
    @pytest.mark.parametrize("bsize", [2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_counts_match_literal_pair_enumeration(self, bsize, k):
        assert map_pair_count(bsize, k) == naive_pair_count(bsize, k) == finite_pair_count(bsize, k)

    def test_pair_of_constants(self):
        assert map_pair_count(2, 0) == 1

    def test_measure(self):
        res = map_pair_measure(2)
        assert res.value == F(-1, 8)
        assert res.counts[:4] == (1, 27, 441, 6723)
        # (1/2)(b^2/(1+(b^4-1)t) - b/(1+(b^2-1)t)) at b=2
        assert res.series.closed_form == rf([1, -9], [1, 18, 45])
        # binom(1/b, 2) = (1 - b) / (2 b^2) is the second route
        for bsize in range(1, 13):
            value = F(1 - bsize, 2 * bsize ** 2)
            res = map_pair_measure(bsize)
            assert res.value == value == gen_binomial(F(1, bsize), 2)
            assert res.routes == {"series_regularization": value, "generalized_binomial": value}

    @pytest.mark.parametrize("terms", range(3, 10))
    def test_counts_only_what_the_certificate_needs(self, terms, monkeypatch):
        asked = []

        def counting(bsize, k):
            asked.append(k)
            return finite_pair_count(bsize, k)

        monkeypatch.setattr(map_spaces, "finite_pair_count", counting)
        # by default the certificate, L + d = 2 + 2 counts; an explicit terms
        # sets the prefix shown, and counts exactly that
        res = map_pair_measure(2)
        assert res.value == F(-1, 8)
        assert asked == [0, 1, 2, 3] and res.counts == (1, 27, 441, 6723)
        asked.clear()
        res = map_pair_measure(2, terms=terms)
        assert res.value == F(-1, 8)
        assert asked == list(range(terms + 1)) and res.counts[:4] == (1, 27, 441, 6723)

    def test_cap(self, monkeypatch):
        # 2^25 sequences of 25 values each
        monkeypatch.setattr(map_spaces, "itertools", SimpleNamespace(product=_unbuilt))
        with pytest.raises(ResourceLimitError, match="finite_pair_count"):
            map_pair_count(2, 12)


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


def _subset_counts(counts):
    """Maps with breakpoints inside a fixed k-set: the zeta transform of the
    exact-breakpoint counts."""
    return tuple(sum(math.comb(k, j) * counts[j] for j in range(k + 1)) for k in range(len(counts)))


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
        res = schanuel_measure(parse("[0,1] u [2,3]"), terms=2)
        assert res.value == res.routes["reciprocal_codomain_measure"] == F(1, 2)
        assert _subset_counts(res.counts)[:3] == (2, 8, 32)
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
        assert _subset_counts(res.counts) == tuple(chi_b ** (2 * k + 1) for k in range(7))
        assert res.counts == tuple(chi_b * (chi_b ** 2 - 1) ** k for k in range(7))

    def test_counts_must_expand_the_closed_form(self):
        closed = binomial_closed_form(-1, 3, 2)  # 2 / (1 + 3t)
        counts = Construction(1, lambda: closed, lambda k: (-1) ** k * 2 * 5 ** k, None,
                              lambda: {"formula": Fraction(1, 2)})
        with pytest.raises(InternalCheckError, match="counts disagree with the closed form"):
            regularize(counts, 3)


# Map-space sizes are integers: a non-integral size is refused with the
# knob it would come from, never truncated or turned into a float.
_DOMAIN = "(0,1) u (2,3)"
_SIZE_CALLS = {
    "schanuel_measure": ("--chib", lambda n: schanuel_measure(n).value),
    "hedral_map_measure": ("--finite", lambda n: hedral_map_measure(parse(_DOMAIN), n).value),
    "map_pair_measure": ("--finite", lambda n: map_pair_measure(n).value),
    "finite_map_count": ("--finite", lambda n: finite_map_count(n, 1)),
    "finite_pair_count": ("--finite", lambda n: finite_pair_count(n, 1)),
    "brute_map_count": ("--finite", lambda n: brute_map_count(n, 1)),
    "map_pair_count": ("--finite", lambda n: map_pair_count(n, 1)),
}


@pytest.mark.parametrize("call", _SIZE_CALLS)
@pytest.mark.parametrize("size", [F(1, 2), F(5, 2), 2.5, 2.7, "3", "2", None, True,
                                  float("inf"), float("nan")], ids=repr)
def test_non_integral_size_refused(call, size):
    knob, run = _SIZE_CALLS[call]
    with pytest.raises(InputError, match=f"^{knob} must be an integer, got "):
        run(size)


@pytest.mark.parametrize("call", _SIZE_CALLS)
@pytest.mark.parametrize("size", [2.0, F(4, 2)], ids=repr)
def test_integral_size_accepted_as_int(call, size):
    _, run = _SIZE_CALLS[call]
    got = run(size)
    assert got == run(2) and type(got) is type(run(2))


@pytest.mark.parametrize("count", [finite_map_count, finite_pair_count, brute_map_count,
                                   map_pair_count])
def test_non_integral_breakpoint_count_refused(count):
    with pytest.raises(InputError, match="breakpoint count must be an integer, got 1.5"):
        count(2, 1.5)
    assert count(2, 1.0) == count(2, 1)
