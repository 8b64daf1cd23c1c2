import itertools
import math
from collections import Counter
from fractions import Fraction

from types import SimpleNamespace

import pytest

from eulermeasure import limits, partition_combinatorics
from eulermeasure.errors import InputError, ResourceLimitError
from eulermeasure.partition_combinatorics import (
    SetPartition,
    falling_factorial,
    gen_binomial,
    iterated_binomial,
    mobius_bottom,
    mobius_by_sizes,
    partition_types,
    partitions_of,
)

F = Fraction


def _unbuilt(*args):
    raise AssertionError("a partition was built")


def naive_partitions(k):
    """Independent oracle: canonicalize every block-assignment function."""
    seen = set()
    for assignment in itertools.product(range(k), repeat=k):
        blocks = {}
        for element, label in enumerate(assignment, start=1):
            blocks.setdefault(label, []).append(element)
        seen.add(frozenset(frozenset(b) for b in blocks.values()))
    return seen


class TestPartitionsOf:
    def test_k0(self):
        assert partitions_of(0) == [SetPartition(())]

    @pytest.mark.parametrize("k,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_counts_match_oracle(self, k, bell):
        got = partitions_of(k)
        oracle = naive_partitions(k)
        assert len(got) == bell == len(oracle)
        as_sets = {frozenset(frozenset(b) for b in pi.blocks) for pi in got}
        assert as_sets == oracle

    def test_block_count_stored(self):
        for pi in partitions_of(4):
            assert pi.block_count == len(pi.blocks)

    def test_cap(self, monkeypatch):
        # the boundary: Bell(4) = 15 partitions of 4 entries, 60 entries in
        # all, are built under a ceiling of 60 and refused under 59
        monkeypatch.setattr(limits, "MAX_ENUMERATION", 60)
        assert len(partitions_of(4)) == 15
        monkeypatch.setattr(limits, "MAX_ENUMERATION", 59)
        with pytest.raises(ResourceLimitError, match="falling_factorial"):
            partitions_of(4)
        # Bell(12) * 12 = 50,122,368 entries: refused at the real ceiling,
        # and so is any larger k, before a partition is built
        monkeypatch.undo()
        monkeypatch.setattr(SetPartition, "_canonical", _unbuilt)
        for k in (12, 13, 10 ** 6):
            with pytest.raises(ResourceLimitError):
                partitions_of(k)

    @pytest.mark.parametrize("k", range(8))
    def test_generated_blocks_are_canonical(self, k):
        got = partitions_of(k)
        assert got == [SetPartition(pi.blocks) for pi in got]

    def test_invalid_partition(self):
        with pytest.raises(InputError):
            SetPartition(((1, 2), (2, 3)))
        with pytest.raises(InputError):
            SetPartition(((1, 3),))


class TestPartitionTypes:
    @pytest.mark.parametrize("k", range(9))
    def test_groups_set_partitions_by_block_sizes(self, k):
        by_type = Counter(
            tuple(sorted((len(b) for b in pi.blocks), reverse=True)) for pi in partitions_of(k)
        )
        assert dict(partition_types(k)) == by_type
        for pi in partitions_of(k):
            assert mobius_by_sizes(len(b) for b in pi.blocks) == mobius_bottom(pi)

    def test_same_checks_as_partitions_of(self, monkeypatch):
        # 56 integer partitions of 11 are listed; p(k) * k entries are refused
        # above the ceiling before any is built
        assert len(partition_types(11)) == 56
        assert sum(ways for _, ways in partition_types(11)) == 678_570  # Bell(11)
        monkeypatch.setattr(partition_combinatorics, "math", SimpleNamespace())
        for k in (100, 10 ** 6):
            with pytest.raises(ResourceLimitError):
                partition_types(k)
        with pytest.raises(InputError):
            partition_types(-1)
        with pytest.raises(InputError):
            partitions_of(-1)


class TestMobiusBottom:
    def test_all_singletons(self):
        assert mobius_bottom(SetPartition(((1,), (2,), (3,)))) == 1

    def test_one_pair(self):
        assert mobius_bottom(SetPartition(((1, 2), (3,)))) == -1

    def test_single_block(self):
        assert mobius_bottom(SetPartition(((1, 2, 3),))) == 2

    def test_product_formula(self):
        pi = SetPartition(((1, 2, 3), (4, 5), (6,)))
        assert mobius_bottom(pi) == 2 * -1 * 1


class TestGenBinomial:
    def test_negative_integer(self):
        assert gen_binomial(-2, 3) == -4

    def test_half(self):
        assert gen_binomial(F(1, 2), 2) == F(-1, 8)

    def test_k_zero(self):
        for x in (F(7, 3), F(-2), F(0)):
            assert gen_binomial(x, 0) == 1

    def test_negative_k(self):
        with pytest.raises(InputError):
            gen_binomial(1, -1)


def _fraction_falling_factorial(x, k):
    """The product x (x-1) ... (x-k+1) taken step by step in Fractions."""
    value = F(1)
    for i in range(k):
        value *= x - i
    return value


GRID = sorted({F(p, q) for p in range(-9, 10) for q in (1, 2, 3, 4, 7, 12)})


@pytest.mark.parametrize("k", range(9))
def test_falling_factorial_matches_the_fraction_product(k):
    for x in GRID:
        value = falling_factorial(x, k)
        assert type(value) is Fraction and value == _fraction_falling_factorial(x, k)
    assert falling_factorial(5, k) == _fraction_falling_factorial(F(5), k)
    assert falling_factorial("-7/3", k) == _fraction_falling_factorial(F(-7, 3), k)


class TestIteratedBinomial:
    def test_integers(self):
        assert iterated_binomial(4, [2, 2]) == math.comb(6, 2) == 15

    def test_half(self):
        assert iterated_binomial(F(1, 2), [2, 2]) == gen_binomial(F(-1, 8), 2) == F(9, 128)

    def test_empty_fold(self):
        assert iterated_binomial(F(5, 7), []) == F(5, 7)
