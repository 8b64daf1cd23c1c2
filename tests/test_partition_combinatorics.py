import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from eulermeasure.errors import InputError, ResourceLimitError
from eulermeasure.partition_combinatorics import (
    SetPartition,
    gen_binomial,
    iterated_binomial,
    mobius_bottom,
    mobius_by_sizes,
    partition_types,
    partitions_of,
)

F = Fraction


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

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            partitions_of(11)
        # the boundary: k == cap is built, k == cap + 1 is refused
        assert len(partitions_of(4, cap=4)) == 15
        with pytest.raises(ResourceLimitError):
            partitions_of(5, cap=4)

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

    def test_same_checks_as_partitions_of(self):
        with pytest.raises(ResourceLimitError):
            partition_types(11)
        with pytest.raises(InputError):
            partition_types(-1)


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


class TestIteratedBinomial:
    def test_integers(self):
        assert iterated_binomial(4, [2, 2]) == math.comb(6, 2) == 15

    def test_half(self):
        assert iterated_binomial(F(1, 2), [2, 2]) == gen_binomial(F(-1, 8), 2) == F(9, 128)

    def test_empty_fold(self):
        assert iterated_binomial(F(5, 7), []) == F(5, 7)
