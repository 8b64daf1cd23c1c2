import io
import itertools
import json
import math
import pathlib
import random
import re
import subprocess
import sys
import threading
import time
from dataclasses import FrozenInstanceError
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import reduce
from operator import and_, or_
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import interval_reference
import setparse_reference
from interval_reference import cell_flags as _cell_flags
from interval_reference import cell_in as _cell_in
from interval_reference import critical_coordinates as _critical_coordinates
from interval_reference import elementary_cells as _elementary_cells
from eulermeasure import cli, interval_sets, setparse
from eulermeasure.errors import InputError, ParseError
from eulermeasure.interval_sets import (
    NEG_INF,
    POS_INF,
    ComponentDescriptor,
    ExtendedRational,
    OpenInterval,
    Point,
    PolyhedralSet1D,
    canonicalize,
    combine,
    complement,
    ext,
    open_interval,
    points,
    segment,
)
from eulermeasure.interval_sets import (
    _runs,
    _stored,
)
from eulermeasure.setparse import MAX_NESTING_DEPTH, parse_set_expression
from eulermeasure.verify import random_polyhedral_set


def iv(a, b):
    return OpenInterval(ext(a), ext(b))


class TestExtendedRational:
    def test_total_order(self):
        q = ExtendedRational.finite(Fraction(3, 2))
        assert NEG_INF < q < POS_INF
        assert NEG_INF < ExtendedRational.finite(-(10 ** 12))
        assert ExtendedRational.finite(1) < ExtendedRational.finite(Fraction(3, 2))
        assert not POS_INF < POS_INF

    def test_infinite_values_normalized(self):
        assert ExtendedRational(1, Fraction(5)) == POS_INF

    def test_bad_rank(self):
        with pytest.raises(InputError):
            ExtendedRational(2)


class TestCanonicalize:
    def test_disjoint_pieces_already_canonical(self):
        s = canonicalize([Point(5), iv(0, 1), iv(1, 2)])
        assert s.pieces == (iv(0, 1), iv(1, 2), Point(5))

    def test_closed_literal_decomposes(self):
        s = segment(0, 1, include_lower=True, include_upper=True)
        assert s.pieces == (Point(0), iv(0, 1), Point(1))

    def test_overlapping_intervals_merge(self):
        s = canonicalize([iv(0, 2), iv(1, 3)])
        assert s.pieces == (iv(0, 3),)

    def test_raw_constructor_canonicalizes(self):
        # overlapping, unsorted and redundant pieces: the raw constructor
        # sweeps them as from_pieces does
        for raw in ([iv(0, 2), iv(1, 3)], [iv(1, 3), Point(2), iv(0, 2)],
                    [Point(1), iv(0, 1), Point(1), iv(1, 2)]):
            s = PolyhedralSet1D(raw)
            assert s == PolyhedralSet1D.from_pieces(raw)
            assert s.pieces in ((iv(0, 3),), (iv(0, 2),))
            assert s.coords in ((0, 3), (0, 2)) and s.euler_measure() == -1
        with pytest.raises(InputError, match="not a piece"):
            PolyhedralSet1D([(0, 1)])

    def test_interior_point_absorbed(self):
        s = canonicalize([iv(0, 1), Point(1), iv(1, 2)])
        assert s.pieces == (iv(0, 2),)

    def test_one_sided_point_kept(self):
        s = canonicalize([Point(0), iv(0, 1)])
        assert s.pieces == (Point(0), iv(0, 1))

    def test_duplicate_points_collapse(self):
        assert points([1, 1, Fraction(2, 2)]).pieces == (Point(1),)

    def test_malformed_interval(self):
        with pytest.raises(InputError):
            iv(1, 1)
        with pytest.raises(InputError):
            segment(2, 1)
        with pytest.raises(InputError):
            segment(NEG_INF, 0, include_lower=True)

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            a = random_polyhedral_set(rng)
            assert canonicalize(a.pieces) == a


class TestCombine:
    def test_union_overlap(self):
        a, b = open_interval(0, 2), open_interval(1, 3)
        u = a.union(b)
        assert u.pieces == (iv(0, 3),)
        assert u.euler_measure() == -1 == a.euler_measure() + b.euler_measure() - a.intersect(b).euler_measure()

    def test_complement_of_interval(self):
        c = complement(open_interval(0, 1))
        assert c.pieces == (iv(NEG_INF, 0), Point(0), Point(1), iv(1, POS_INF))
        assert c.euler_measure() == 0

    def test_intersection(self):
        a = open_interval(0, 1).union(open_interval(2, 3))
        b = open_interval(Fraction(1, 2), Fraction(5, 2))
        assert a.intersect(b).pieces == (iv(Fraction(1, 2), 1), iv(2, Fraction(5, 2)))

    def test_difference(self):
        a = segment(0, 2, True, True)
        b = open_interval(1, 2)
        assert a.difference(b).pieces == (Point(0), iv(0, 1), Point(1), Point(2))

    def test_combine_dispatch(self):
        a, b = open_interval(0, 2), open_interval(1, 3)
        assert combine(a, b, "union") == a.union(b)
        assert combine(a, b, "intersect") == a.intersect(b)
        assert combine(a, b, "difference") == a.difference(b)
        with pytest.raises(InputError):
            combine(a, b, "xor")

    def test_membership_oracle(self):
        # combine results must agree with pointwise membership, where
        # membership is read directly off the pieces
        def member(s, q):
            for piece in s.pieces:
                if isinstance(piece, Point):
                    if piece.at == q:
                        return True
                elif piece.left < ext(q) < piece.right:
                    return True
            return False

        rng = random.Random(11)
        for _ in range(40):
            a, b = random_polyhedral_set(rng), random_polyhedral_set(rng)
            samples = {Fraction(n, 4) for n in range(-60, 61)}
            for q in samples:
                assert member(a.union(b), q) == (member(a, q) or member(b, q))
                assert member(a.intersect(b), q) == (member(a, q) and member(b, q))
                assert member(a.difference(b), q) == (member(a, q) and not member(b, q))
                assert member(a.complement(), q) != member(a, q)


class TestEulerMeasure:
    def test_open_interval(self):
        assert open_interval(0, 1).euler_measure() == -1

    def test_two_points(self):
        assert points([0, 1]).euler_measure() == 2

    def test_two_intervals(self):
        assert open_interval(0, 1).union(open_interval(2, 3)).euler_measure() == -2

    def test_closed_interval(self):
        assert segment(0, 1, True, True).euler_measure() == 1

    def test_real_line(self):
        assert parse_set_expression("(-inf,inf)").euler_measure() == -1

    def test_empty(self):
        assert PolyhedralSet1D.empty().euler_measure() == 0


class TestClassify:
    def test_finite_set(self):
        cls = points([1, 2, 3]).classify()
        assert cls.finite and cls.cardinality == 3 and cls.compact

    def test_two_closed_intervals(self):
        a = segment(0, 1, True, True).union(segment(2, 3, True, True))
        cls = a.classify()
        assert not cls.finite
        assert cls.compact
        assert len(cls.components) == 2
        assert not cls.has_isolated_points

    def test_isolated_point(self):
        cls = open_interval(0, 1).union(points([5])).classify()
        assert not cls.compact
        assert cls.has_isolated_points

    def test_endpoint_not_isolated(self):
        cls = segment(0, 1, include_lower=True).classify()
        assert not cls.has_isolated_points
        assert not cls.compact  # [0,1) is not closed

    def test_unbounded_not_compact(self):
        assert not parse_set_expression("(-inf,inf)").classify().compact


class TestRestrictOpen:
    def test_closed_to_open(self):
        assert segment(0, 1, True, True).restrict_open(0, 1) == open_interval(0, 1)

    def test_half_open(self):
        a = segment(0, 1, include_lower=True)
        got = a.restrict_open(NEG_INF, Fraction(1, 2))
        assert got.pieces == (Point(0), iv(0, Fraction(1, 2)))

    def test_two_intervals(self):
        a = open_interval(0, 1).union(open_interval(2, 3))
        got = a.restrict_open(Fraction(1, 2), Fraction(5, 2))
        assert got.pieces == (iv(Fraction(1, 2), 1), iv(2, Fraction(5, 2)))

    def test_empty_window(self):
        with pytest.raises(InputError):
            open_interval(0, 1).restrict_open(1, 1)


class TestValuationProperties:
    def test_valuation_law(self):
        rng = random.Random(23)
        for _ in range(80):
            a, b = random_polyhedral_set(rng), random_polyhedral_set(rng)
            assert (
                a.union(b).euler_measure()
                == a.euler_measure() + b.euler_measure() - a.intersect(b).euler_measure()
            )

    @pytest.mark.parametrize("m", [3, 4])
    def test_inclusion_exclusion(self, m):
        rng = random.Random(29 + m)
        for _ in range(25):
            sets = [random_polyhedral_set(rng) for _ in range(m)]
            union = PolyhedralSet1D.empty()
            for s in sets:
                union = union.union(s)
            total = 0
            for size in range(1, m + 1):
                for combo in itertools.combinations(sets, size):
                    inter = combo[0]
                    for s in combo[1:]:
                        inter = inter.intersect(s)
                    total += (-1) ** (size - 1) * inter.euler_measure()
            assert union.euler_measure() == total

    def test_complement_law(self):
        rng = random.Random(31)
        for _ in range(50):
            a = random_polyhedral_set(rng)
            assert a.euler_measure() + a.complement().euler_measure() == -1

    def test_finite_measure_is_cardinality(self):
        rng = random.Random(37)
        for _ in range(40):
            a = points(Fraction(rng.randint(-20, 20), 2) for _ in range(rng.randint(0, 6)))
            assert a.euler_measure() == len(a.pieces)

    def test_translation_invariance(self):
        rng = random.Random(41)
        for _ in range(40):
            a = random_polyhedral_set(rng)
            d = Fraction(rng.randint(-30, 30), 7)
            shifted = a.shift(d)
            assert shifted.euler_measure() == a.euler_measure()
            assert shifted.shift(-d) == a


# -- the sweep and the merge against the per-cell scan -----------------
#
# The scan tests each elementary cell against every piece with _cell_in
# and rebuilds the components from the explicit cell list; it shares
# nothing with the sweep or the merge but the coordinates, the cell order,
# _runs and _stored, which stores Fraction coordinates over their least
# denominator (assert_canonical_cells checks that form on its own).

def scan_flags(pieces, coords):
    return [_cell_in(pieces, cell) for cell in _elementary_cells(coords)]


def scan_components(coords, flags):
    cells = _elementary_cells(coords)
    out = []
    for start, stop in _runs(flags):
        first, last = cells[start], cells[stop]
        if start == stop and first[0] == "pt":
            at = ext(first[1])
            out.append(ComponentDescriptor(at, at, True, True, True))
            continue
        lower = ext(first[1]) if first[0] == "pt" else first[1]
        upper = ext(last[1]) if last[0] == "pt" else last[2]
        out.append(ComponentDescriptor(lower, upper, first[0] == "pt", last[0] == "pt", False))
    return out


def scan_set(coords, flags):
    """The set of the cells, built without the sweep or the merge: the
    coordinates whose three cells agree are dropped, and the pieces read
    off the scan's components are stored as the set's pieces."""
    keep = [i for i in range(len(coords))
            if not flags[2 * i] == flags[2 * i + 1] == flags[2 * i + 2]]
    cells = [flags[0]] + [f for i in keep for f in (flags[2 * i + 1], flags[2 * i + 2])]
    s = _stored(tuple([coords[i] for i in keep]), 0, tuple(cells))
    pieces = []
    for c in scan_components(coords, flags):
        if c.is_point:
            pieces.append(Point(c.lower.value))
            continue
        if c.closed_lower:
            pieces.append(Point(c.lower.value))
        pieces.append(OpenInterval(c.lower, c.upper))
        if c.closed_upper:
            pieces.append(Point(c.upper.value))
    s.__dict__["pieces"] = tuple(pieces)
    return s


# A small grid of halves makes shared endpoints, duplicate points and
# points on interval ends common.
grid = st.integers(-8, 8).map(lambda n: Fraction(n, 2))


@st.composite
def raw_interval(draw, coordinates=grid):
    a, b = sorted(draw(st.lists(coordinates, min_size=2, max_size=2, unique=True)))
    lo = NEG_INF if draw(st.integers(0, 9)) == 0 else ext(a)
    hi = POS_INF if draw(st.integers(0, 9)) == 0 else ext(b)
    return OpenInterval(lo, hi)


raw_pieces = st.lists(st.one_of(grid.map(Point), raw_interval()), max_size=40)
canonical_sets = raw_pieces.map(canonicalize)


class TestSweepAgainstCellScan:
    @settings(max_examples=200, deadline=None)
    @given(raw_pieces)
    def test_flags_and_canonical_form(self, raw):
        coords = _critical_coordinates([raw])
        flags = _cell_flags(raw, coords)
        assert flags == scan_flags(raw, coords)
        assert canonicalize(raw) == scan_set(coords, flags)

    @settings(max_examples=150, deadline=None)
    @given(canonical_sets, canonical_sets)
    def test_boolean_operations(self, a, b):
        coords = _critical_coordinates([a.pieces, b.pieces])
        fa, fb = scan_flags(a.pieces, coords), scan_flags(b.pieces, coords)
        assert a.union(b) == scan_set(coords, [x or y for x, y in zip(fa, fb)])
        assert a.intersect(b) == scan_set(coords, [x and y for x, y in zip(fa, fb)])
        assert a.difference(b) == scan_set(coords, [x and not y for x, y in zip(fa, fb)])

    @settings(max_examples=150, deadline=None)
    @given(canonical_sets)
    def test_complement_and_classify(self, a):
        coords = _critical_coordinates([a.pieces])
        flags = scan_flags(a.pieces, coords)
        assert a.complement() == scan_set(coords, [not f for f in flags])
        assert list(a.classify().components) == scan_components(coords, flags)

    def test_edge_cases(self):
        for raw in (
            [],
            [Point(1), Point(1), Point(Fraction(2, 2))],
            [iv(0, 1), Point(1), iv(1, 2)],
            [Point(0), iv(0, 1)],
            [iv(0, 1), Point(1)],
            [iv(NEG_INF, 0), iv(0, POS_INF)],
            [iv(NEG_INF, POS_INF), Point(3)],
            [iv(0, 3), iv(1, 2), iv(2, 5)],
        ):
            coords = _critical_coordinates([raw])
            assert _cell_flags(raw, coords) == scan_flags(raw, coords)
            assert canonicalize(raw) == scan_set(coords, scan_flags(raw, coords))


# -- union's splice against the merge and the cell scan ----------------
#
# union merges only a window of the larger operand around the
# smaller one; the operands here differ widely in size so that the window
# is a small part of the result, and share one grid so that they often
# share endpoints.

wide_grid = st.integers(-150, 150).map(lambda n: Fraction(n, 2))


@st.composite
def large_sets(draw):
    """A canonical set of up to about 200 pieces, from one flag per elementary cell."""
    # drawn from one random source, since hypothesis on its own keeps
    # collections small; gap cells (even) and point cells (odd) each get
    # a density, and every point with half the gaps gives the most pieces
    rng = draw(st.randoms(use_true_random=True))
    coords = sorted(Fraction(n, 2) for n in rng.sample(range(-150, 151), rng.randint(0, 160)))
    density = rng.choice([(0.5, 1.0), (rng.random(), rng.random())])
    return scan_set(coords, [rng.random() < density[i % 2] for i in range(2 * len(coords) + 1)])


small_sets = st.lists(
    st.one_of(wide_grid.map(Point), raw_interval(wide_grid)), max_size=3
).map(canonicalize)


def sweep_or(a, b):
    return a or b


class TestUnionSplice:
    @settings(max_examples=150, deadline=None)
    @given(large_sets(), small_sets)
    def test_splice_matches_sweep_and_cell_scan(self, large, small):
        coords = _critical_coordinates([large.pieces, small.pieces])
        flags = map(sweep_or, scan_flags(large.pieces, coords), scan_flags(small.pieces, coords))
        expected = scan_set(coords, list(flags))
        for a, b in ((large, small), (small, large)):
            assert a.union(b) == a._binary(b, sweep_or) == expected

    def test_edge_cases(self):
        line = parse_set_expression("(-inf,inf)")
        rays = open_interval(NEG_INF, -5) | open_interval(5, POS_INF)
        many = canonicalize([iv(2 * i, 2 * i + 1) for i in range(-20, 20)] + [Point(41)])
        cases = [
            (points([1]), open_interval(1, 2), "{1} u (1,2)"),
            (open_interval(0, 1) | points([1]), open_interval(1, 2), "(0,2)"),
            (open_interval(1, 2), segment(0, 1, False, True), "(0,2)"),
            (open_interval(0, 1), segment(1, 2, True, False), "(0,2)"),
            (PolyhedralSet1D.empty(), many, str(many)),
            (PolyhedralSet1D.empty(), PolyhedralSet1D.empty(), "{}"),
            (rays, points([-5, 5]), "(-inf,-5) u {-5} u {5} u (5,inf)"),
            (rays, open_interval(-5, 5), "(-inf,-5) u (-5,5) u (5,inf)"),
            (rays, points([-5, 5]) | open_interval(-5, 5), "(-inf,inf)"),
            (line, many, "(-inf,inf)"),
            (many, open_interval(-1, 0) | points([40]), None),
            (many, segment(-39, 1, True, True), None),
            (many, open_interval(NEG_INF, 0), None),
            (many, points([41, 42]), None),
        ]
        for a, b, text in cases:
            expected = a._binary(b, sweep_or)
            if text is not None:
                assert str(expected) == text
            assert a.union(b) == b.union(a) == expected
        chain = open_interval(0, 1).union(points([1])).union(open_interval(1, 2))
        assert chain == open_interval(0, 2)


# -- literals, and pieces built without the constructor checks ----------


class TestLiteralConstruction:
    # segment and open_interval return their pieces without a sweep, and
    # the kernel builds pieces without the constructor checks; both must
    # give exactly the values the checked constructors and the sweep give.

    @pytest.mark.parametrize("include_lower", [False, True])
    @pytest.mark.parametrize("include_upper", [False, True])
    @pytest.mark.parametrize("lower, upper", [
        (0, 1), (Fraction(-7, 2), Fraction(3, 4)), ("1/3", "1/2"),
        (NEG_INF, 2), (-3, POS_INF), (NEG_INF, POS_INF),
    ])
    def test_segment_equals_from_pieces(self, lower, upper, include_lower, include_upper):
        lo, hi = ext(lower), ext(upper)
        if (include_lower and not lo.is_finite) or (include_upper and not hi.is_finite):
            with pytest.raises(InputError, match="cannot close an interval"):
                segment(lower, upper, include_lower, include_upper)
            return
        pieces = [OpenInterval(lo, hi)]
        if include_lower:
            pieces.append(Point(lo.value))
        if include_upper:
            pieces.append(Point(hi.value))
        got = segment(lower, upper, include_lower, include_upper)
        assert got == PolyhedralSet1D.from_pieces(pieces)
        if not (include_lower or include_upper):
            assert open_interval(lower, upper) == got

    def test_pieces_built_without_checks_equal_checked_ones(self):
        literal = segment(1, "5/2", True, True)
        assert literal.pieces == (Point(1), OpenInterval(1, Fraction(5, 2)), Point(Fraction(5, 2)))
        self.assert_like_checked(literal)

    @settings(max_examples=100, deadline=None)
    @given(canonical_sets, canonical_sets, grid)
    def test_kernel_output_equals_checked_pieces(self, a, b, d):
        for result in (a | b, a & b, a - b, ~a, a.shift(d), a.restrict_open(d, POS_INF)):
            self.assert_like_checked(result)

    @staticmethod
    def assert_like_checked(s):
        """Every piece equals, and hashes like, its rebuild through the checked constructors."""
        for piece in s.pieces:
            if isinstance(piece, Point):
                checked = Point(piece.at)
                coordinates = [piece.at]
            else:
                checked = OpenInterval(ExtendedRational(piece.left.rank, piece.left.value),
                                       ExtendedRational(piece.right.rank, piece.right.value))
                coordinates = [piece.left.value, piece.right.value]
            assert piece == checked and hash(piece) == hash(checked)
            assert all(type(x) is Fraction for x in coordinates)

    @pytest.mark.parametrize("text, message", [
        ("[0,0]", "malformed interval: 0 >= 0 (interval starting at position 0)"),
        ("(2,1)", "malformed interval: 2 >= 1 (interval starting at position 0)"),
        ("(inf,3)", "malformed interval: inf >= 3 (interval starting at position 0)"),
        ("[-inf,0)", "cannot close an interval at -inf (interval starting at position 0)"),
        ("(0,+inf]", "cannot close an interval at inf (interval starting at position 0)"),
        ("{0} u (0,-inf]", "malformed interval: 0 >= -inf (interval starting at position 6)"),
        ("(1/0,2)", "division by zero in rational literal at position 1"),
        # the parser compares scaled integers, but names the bounds as written
        ("(1/2,1/3)", "malformed interval: 1/2 >= 1/3 (interval starting at position 0)"),
        ("(2/4,1/2)", "malformed interval: 1/2 >= 1/2 (interval starting at position 0)"),
    ])
    def test_malformed_literals_keep_their_messages(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_set_expression(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("build, message", [
        (lambda: segment(0, 0), "malformed interval: 0 >= 0"),
        (lambda: open_interval(1, Fraction(1, 2)), "malformed interval: 1 >= 1/2"),
        (lambda: open_interval(POS_INF, NEG_INF), "malformed interval: inf >= -inf"),
        (lambda: segment(NEG_INF, 0, include_lower=True), "cannot close an interval at -inf"),
        (lambda: segment(0, POS_INF, include_upper=True), "cannot close an interval at inf"),
        (lambda: segment(Fraction(1, 2), 0.75), "refusing float 0.75: this library is exact, "
                                                 "pass int, Fraction or 'p/q'"),
    ])
    def test_malformed_library_literals_keep_their_messages(self, build, message):
        with pytest.raises(InputError) as err:
            build()
        assert str(err.value) == message


# -- restrict_open's slice against a general intersection ----------------
#
# Window ends are drawn on a grid of quarters, so they fall on the sets'
# points and interval ends (the halves) as well as inside their intervals
# and gaps; either end may also be infinite, so rays are cut too.

window_end = st.integers(-18, 18).map(lambda n: Fraction(n, 4))


class TestRestrictOpenSlice:
    @settings(max_examples=300, deadline=None)
    @given(canonical_sets, window_end, window_end, st.integers(0, 7), st.integers(0, 7))
    def test_slice_equals_intersect(self, a, x, y, lower_roll, upper_roll):
        if x == y:
            return
        lo = NEG_INF if lower_roll == 0 else ext(min(x, y))
        hi = POS_INF if upper_roll == 0 else ext(max(x, y))
        assert a.restrict_open(lo, hi) == a.intersect(open_interval(lo, hi))

    @pytest.mark.parametrize("text, lower, upper, expected", [
        ("[0,1] u [2,3]", 0, 3, "(0,1) u {1} u {2} u (2,3)"),
        ("[0,1] u [2,3]", 1, 2, "{}"),
        ("{0} u (0,2) u {5}", Fraction(1, 2), 5, "(1/2,2)"),
        ("(-inf,0) u (1,inf)", Fraction(-1, 2), Fraction(3, 2), "(-1/2,0) u (1,3/2)"),
        ("(-inf,inf)", NEG_INF, POS_INF, "(-inf,inf)"),
        ("(-inf,inf)", 0, POS_INF, "(0,inf)"),
        ("(0,4)", 1, 2, "(1,2)"),
        ("{}", 0, 1, "{}"),
    ])
    def test_edge_cases(self, text, lower, upper, expected):
        a = parse_set_expression(text)
        got = a.restrict_open(lower, upper)
        assert str(got) == expected
        assert got == a.intersect(open_interval(lower, upper))


# -- the stored cell index against the cell scan --------------------------
#
# A set stores its canonical cells, nums over den and flags; its coords
# and pieces are built from them on first read.  Each result here is held
# against scan_set, which stores the scan's cells and pieces, so equal
# values must also hash alike and the pieces built on read must be the
# scan's.


def assert_canonical_cells(s):
    """Sorted distinct Fraction coordinates, one bool per cell, and no
    coordinate whose gap below, point and gap above agree; stored as
    integers over their least common denominator when it has at most
    MAX_SCALE_BITS bits, as Fractions with den 0 when it has more."""
    coords, flags = s.coords, s.flags
    assert type(coords) is tuple and type(flags) is tuple and type(s.nums) is tuple
    least = math.lcm(*(x.denominator for x in coords))
    if least == 1 or least.bit_length() <= interval_sets.MAX_SCALE_BITS:
        assert s.den == least and all(type(n) is int for n in s.nums)
        assert s.nums == tuple(x * least for x in coords)
    else:
        assert s.den == 0 and s.nums == coords
    assert len(flags) == 2 * len(coords) + 1
    assert all(type(x) is Fraction for x in coords)
    assert all(type(f) is bool for f in flags)
    assert all(x < y for x, y in zip(coords, coords[1:]))
    assert not any(flags[2 * i] == flags[2 * i + 1] == flags[2 * i + 2]
                   for i in range(len(coords)))


def assert_same_set(got, expected):
    assert got == expected and hash(got) == hash(expected)
    assert got.pieces == expected.pieces
    assert_canonical_cells(got)


@st.composite
def edge_sets(draw):
    """The empty set, the whole line, or a ray on either side or both,
    with up to three small pieces next to it."""
    kind = draw(st.sampled_from(["empty", "line", "left", "right", "both"]))
    if kind == "empty":
        return PolyhedralSet1D.empty()
    if kind == "line":
        return canonicalize([iv(NEG_INF, POS_INF)])
    x, y = sorted(draw(st.lists(wide_grid, min_size=2, max_size=2, unique=True)))
    raw = list(draw(small_sets).pieces)
    if kind in ("left", "both"):
        raw += [iv(NEG_INF, x)] + ([Point(x)] if draw(st.booleans()) else [])
    if kind in ("right", "both"):
        raw += [iv(y, POS_INF)] + ([Point(y)] if draw(st.booleans()) else [])
    return canonicalize(raw)


# A prime above 2^88, so that a denominator over it has more than 64 bits.
BIG_PRIME = 2 ** 89 - 1


@st.composite
def off_grid_values(draw):
    q = draw(st.sampled_from([3, 5, 7, BIG_PRIME]))
    return Fraction(draw(st.integers(-5 * q, 5 * q)), q)


off_grid_or_on = st.one_of(off_grid_values(), window_end)


def shifted_pieces(pieces, d):
    def move(bound):
        return ext(bound.value + d) if bound.is_finite else bound

    return [Point(p.at + d) if isinstance(p, Point) else OpenInterval(move(p.left), move(p.right))
            for p in pieces]


class TestCellIndex:
    @settings(max_examples=150, deadline=None)
    @given(large_sets(), edge_sets())
    def test_union_with_rays_empty_and_line(self, large, edge):
        coords = _critical_coordinates([large.pieces, edge.pieces])
        flags = map(sweep_or, scan_flags(large.pieces, coords), scan_flags(edge.pieces, coords))
        expected = scan_set(coords, list(flags))
        for a, b in ((large, edge), (edge, large)):
            assert_same_set(a.union(b), expected)

    @settings(max_examples=200, deadline=None)
    @given(canonical_sets, window_end, window_end, st.integers(0, 7), st.integers(0, 7))
    def test_restrict_open_against_cell_scan(self, a, x, y, lower_roll, upper_roll):
        if x == y:
            return
        lo = NEG_INF if lower_roll == 0 else ext(min(x, y))
        hi = POS_INF if upper_roll == 0 else ext(max(x, y))
        window = [OpenInterval(lo, hi)]
        coords = _critical_coordinates([a.pieces, window])
        flags = [f and w for f, w in zip(scan_flags(a.pieces, coords), scan_flags(window, coords))]
        assert_same_set(a.restrict_open(lo, hi), scan_set(coords, flags))

    @settings(max_examples=150, deadline=None)
    @given(canonical_sets, st.integers(-20, 20).map(lambda n: Fraction(n, 3)))
    def test_shift_against_cell_scan(self, a, d):
        raw = shifted_pieces(a.pieces, d)
        coords = _critical_coordinates([raw])
        assert_same_set(a.shift(d), scan_set(coords, scan_flags(raw, coords)))

    @settings(max_examples=150, deadline=None)
    @given(canonical_sets)
    def test_contains_against_cell_scan(self, a):
        for n in range(-40, 41):
            q = Fraction(n, 4)
            assert a.contains(q) is _cell_in(a.pieces, ("pt", q))
        assert a.contains("1/2") is a.contains(Fraction(1, 2))

    @settings(max_examples=150, deadline=None)
    @given(canonical_sets, canonical_sets, grid)
    def test_pieces_round_trip(self, a, b, d):
        for s in (a, a | b, a & b, a - b, ~a, a.shift(d), a.restrict_open(d, POS_INF)):
            assert_canonical_cells(s)
            assert_same_set(PolyhedralSet1D.from_pieces(s.pieces), s)
            assert_same_set(PolyhedralSet1D(s.pieces), s)
            # the measure read off the cells is the count over the pieces
            points_ = sum(isinstance(p, Point) for p in s.pieces)
            assert s.euler_measure() == 2 * points_ - len(s.pieces)

    def test_stored_form(self):
        a = parse_set_expression("(-inf,0) u {1} u [2,3)")
        assert a.coords == (0, 1, 2, 3)
        assert a.flags == (True, False, False, True, False, True, True, False, False)
        line = parse_set_expression("(-inf,inf)")
        assert (line.coords, line.flags) == ((), (True,))
        assert (PolyhedralSet1D.empty().coords, PolyhedralSet1D.empty().flags) == ((), (False,))
        with pytest.raises(FrozenInstanceError):
            a.coords = ()

    def test_pieces_built_once_on_first_read(self):
        a = open_interval(0, 1) | points([5])
        assert "pieces" not in vars(a)
        first = a.pieces
        assert a.pieces is first and vars(a)["pieces"] is first

    def test_shared_sets_read_alike_across_threads(self):
        # several threads read the pieces of the same fresh sets at once;
        # every read gives the one value, and the cached view is equal to it
        rng = random.Random(47)
        sources = [random_polyhedral_set(rng, 6) for _ in range(60)]
        expected = [s.pieces for s in sources]
        shared = [s.shift(0) for s in sources]  # fresh sets, pieces not built yet
        assert not any("pieces" in vars(s) for s in shared)
        barrier = threading.Barrier(6)
        reads: list = [None] * 6

        def read(slot):
            barrier.wait(timeout=10)
            reads[slot] = [s.pieces for s in shared]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(slot,)) for slot in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(got == expected for got in reads)
        assert [s.pieces for s in shared] == expected

    # Window ends, points and deltas off the sets' grid of halves: over 3,
    # 5, 7 and a prime above 2^64, or on the grid, so that they also fall on
    # the sets' coordinates.

    @settings(max_examples=200, deadline=None)
    @given(canonical_sets, off_grid_or_on, off_grid_or_on, st.integers(0, 7), st.integers(0, 7))
    def test_restrict_open_off_the_grid(self, a, x, y, lower_roll, upper_roll):
        if x == y:
            return
        lo = NEG_INF if lower_roll == 0 else ext(min(x, y))
        hi = POS_INF if upper_roll == 0 else ext(max(x, y))
        window = [OpenInterval(lo, hi)]
        coords = _critical_coordinates([a.pieces, window])
        flags = [f and w for f, w in zip(scan_flags(a.pieces, coords), scan_flags(window, coords))]
        assert_same_set(a.restrict_open(lo, hi), scan_set(coords, flags))

    @settings(max_examples=150, deadline=None)
    @given(canonical_sets, off_grid_or_on)
    def test_shift_off_the_grid(self, a, d):
        raw = shifted_pieces(a.pieces, d)
        coords = _critical_coordinates([raw])
        assert_same_set(a.shift(d), scan_set(coords, scan_flags(raw, coords)))
        assert_same_set(a.shift(d).shift(-d), a)

    @settings(max_examples=150, deadline=None)
    @given(canonical_sets, st.lists(off_grid_or_on, max_size=20))
    def test_contains_off_the_grid(self, a, queries):
        for q in queries + [x + Fraction(1, BIG_PRIME) for x in a.coords]:
            assert a.contains(q) is _cell_in(a.pieces, ("pt", q))

    def test_window_end_rescales_the_result(self):
        a = segment(0, 1, True, True)  # over den 1
        got = a.restrict_open(Fraction(1, 3), Fraction(5, 7))
        assert (got.nums, got.den, got.flags) == ((7, 15), 21, (False, False, True, False, False))
        assert str(got) == "(1/3,5/7)"
        half = open_interval(Fraction(-1, 2), Fraction(3, 2))  # over den 2
        far = Fraction(1, BIG_PRIME)
        got = half.restrict_open(far, POS_INF)
        assert got.den == 2 * BIG_PRIME and got.nums == (2, 3 * BIG_PRIME)
        assert_same_set(got, open_interval(far, Fraction(3, 2)))
        # windows that keep, widen and cut away the den of (-1/2, 3/2)
        assert half.restrict_open(1, 2).den == 2
        assert half.restrict_open(1, Fraction(5, 4)).den == 4
        assert half.restrict_open(0, 1).den == 1

    def test_queries_leave_the_coordinate_view_unbuilt(self):
        a = open_interval(Fraction(-1, 2), Fraction(3, 2)) | points([Fraction(5, 2)])
        a.contains(Fraction(1, 3))
        a.restrict_open(Fraction(1, 3), Fraction(9, 7))
        a.restrict_open(NEG_INF, 1)
        assert "coords" not in vars(a) and "pieces" not in vars(a)


# -- the kernel against its Fraction-coordinate reference ----------------
#
# tests/interval_reference.py keeps the kernel as it was on Fraction
# coordinates.  Sets here mix denominators 1, 2, 3 and 7, pairwise coprime
# primes and values above 64 bits, with rays, the empty set and the whole
# line; every operation must give the reference's coordinates, flags and
# pieces, under the default bound on the common denominator and under
# bounds that put most sets on the Fraction fallback.

MIXED_DENOMINATORS = (1, 2, 3, 7, 5, 11, 13, 2 ** 61 - 1, BIG_PRIME)


@st.composite
def mixed_values(draw):
    q = draw(st.sampled_from(MIXED_DENOMINATORS))
    n = draw(st.integers(-6 * q, 6 * q))
    if draw(st.integers(0, 9)) == 0:
        n += draw(st.sampled_from([-1, 1])) * 2 ** 70 * q  # far out, above 64 bits
    return Fraction(n, q)


@st.composite
def mixed_raw(draw):
    """Raw pieces on mixed denominators, or the empty set or the whole line."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return []
    if kind == 1:
        return [iv(NEG_INF, POS_INF)]
    values = st.one_of(grid, mixed_values())
    return draw(st.lists(st.one_of(values.map(Point), raw_interval(values)), max_size=12))


def assert_like_reference(got, cells):
    coords, flags = cells
    assert got.coords == coords and all(type(x) is Fraction for x in got.coords)
    assert got.flags == flags
    assert got.pieces == interval_reference.pieces(cells)
    assert_canonical_cells(got)


class TestKernelAgainstFractionReference:
    @pytest.mark.parametrize("bound", [None, 64, 8, 0])
    @settings(max_examples=120, deadline=None)
    @given(mixed_raw(), mixed_raw(), st.one_of(grid, mixed_values()),
           st.one_of(grid, mixed_values()), st.integers(0, 5), st.integers(0, 5))
    def test_every_operation(self, bound, raw_a, raw_b, x, y, lower_roll, upper_roll):
        with mock.patch.object(interval_sets, "MAX_SCALE_BITS",
                               interval_sets.MAX_SCALE_BITS if bound is None else bound):
            a, b = canonicalize(raw_a), PolyhedralSet1D(raw_b)
            ra, rb = interval_reference.construct(raw_a), interval_reference.construct(raw_b)
            assert_like_reference(a, ra)
            assert_like_reference(b, rb)
            assert_like_reference(a | b, interval_reference.union(ra, rb))
            assert_like_reference(b | a, interval_reference.union(rb, ra))
            assert_like_reference(a & b, interval_reference.intersect(ra, rb))
            assert_like_reference(a - b, interval_reference.difference(ra, rb))
            assert_like_reference(~a, interval_reference.complement(ra))
            assert_like_reference(a.shift(x), interval_reference.shift(ra, x))
            for q in (x, y, *a.coords):
                assert a.contains(q) is interval_reference.contains(ra, q)
            if x != y:
                lo = NEG_INF if lower_roll == 0 else min(x, y)
                hi = POS_INF if upper_roll == 0 else max(x, y)
                assert_like_reference(a.restrict_open(lo, hi),
                                      interval_reference.restrict_open(ra, lo, hi))

    def test_many_coprime_denominators(self):
        # 1600 points over distinct 60-bit primes, then a union and a
        # difference: the common denominator would have about 96,000 bits, so
        # the sets keep their coordinates as Fractions, and a result whose
        # coordinates fit under the bound goes back to integers
        primes = list(itertools.islice(sympy.primerange(2 ** 59, 2 ** 60), 3200))
        rng = random.Random(1600)
        mine, theirs = ([Fraction(rng.randrange(-p, p), p) for p in primes[k::2]] for k in (0, 1))
        a, b = points(mine), points(theirs)
        ra = interval_reference.construct(map(Point, mine))
        rb = interval_reference.construct(map(Point, theirs))
        u = a | b
        ru = interval_reference.union(ra, rb)
        assert_like_reference(u, ru)
        assert_like_reference(u - a, interval_reference.difference(ru, ra))
        assert (a.den, b.den, u.den) == (0, 0, 0) and len(u.nums) == 3200
        low = min(mine)
        window = low - Fraction(1, 10 ** 18), low + Fraction(1, 10 ** 18)
        one = u.restrict_open(*window)
        assert_like_reference(one, interval_reference.restrict_open(ru, *window))
        assert one.coords == (low,) and one.den == low.denominator


# -- one set by several routes: the same stored form ---------------------


class TestCanonicalDenominator:
    @staticmethod
    def assert_one_form(*routes):
        first = routes[0]
        for s in routes:
            assert s == first and hash(s) == hash(first)
            assert (s.nums, s.den, s.flags) == (first.nums, first.den, first.flags)
            assert_canonical_cells(s)

    def test_intersection_over_6_and_4(self):
        over_6 = open_interval(Fraction(-1, 6), Fraction(1, 2))
        over_4 = open_interval(0, Fraction(3, 4))
        assert (over_6.den, over_4.den) == (6, 4)
        half = over_6 & over_4
        assert (half.nums, half.den) == ((0, 1), 2)
        self.assert_one_form(half, open_interval(0, Fraction(1, 2)),
                             parse_set_expression("(0,1/2)"), parse_set_expression("(0,3/6)"),
                             parse_set_expression("(-1/6,1/2) & (0,3/4)"))

    @pytest.mark.parametrize("text", [
        "(0,1/2)", "{1/3} u (1/2,5/7]", "(-inf,2/9) u {3}", "[0,1] \\ {1/2}", "{}", "(-inf,inf)",
    ])
    def test_shift_there_and_back(self, text):
        a = parse_set_expression(text)
        for d in (Fraction(1, 3), Fraction(-5, 6), Fraction(1, BIG_PRIME), Fraction(2)):
            there = a.shift(d)
            self.assert_one_form(there.shift(-d), a)

    def test_pieces_round_trip(self):
        rng = random.Random(53)
        for _ in range(40):
            a = random_polyhedral_set(rng, 5).shift(Fraction(rng.randint(-9, 9), rng.choice([3, 7])))
            b = random_polyhedral_set(rng, 5)
            for s in (a, a | b, a & b, a - b, ~a):
                self.assert_one_form(s, PolyhedralSet1D.from_pieces(s.pieces),
                                     PolyhedralSet1D(s.pieces))

    def test_the_bound_is_inclusive(self):
        # a least denominator of MAX_SCALE_BITS bits is stored as integers,
        # one bit more keeps Fractions; the parser scales under the same bound
        bits = interval_sets.MAX_SCALE_BITS
        at, past = 2 ** (bits - 1) + 1, 2 ** bits + 1
        a, b = points([Fraction(1, at)]), points([Fraction(1, past)])
        assert (a.nums, a.den) == ((1,), at)
        assert (b.nums, b.den) == ((Fraction(1, past),), 0)
        assert setparse._Parser(f"{{1/{at}}}").scale == at
        assert setparse._Parser(f"{{1/{past}}}").scale is None
        self.assert_one_form(a, parse_set_expression(f"{{1/{at}}}"), (a | b) - b)
        self.assert_one_form(b, parse_set_expression(f"{{1/{past}}}"), (a | b) - a)
        assert (a | b).den == 0

    def test_empty_and_line(self):
        line = parse_set_expression("(-inf,inf)")
        for s in (PolyhedralSet1D.empty(), parse_set_expression("{}"), line,
                  open_interval(0, Fraction(1, 2)) - open_interval(-1, 1),
                  open_interval(NEG_INF, Fraction(1, 3)) | segment(0, POS_INF, True),
                  ~PolyhedralSet1D.empty(), points([Fraction(1, 7)]) & points([Fraction(2, 7)])):
            assert s.den == 1 and s.nums == ()
        self.assert_one_form(line, ~PolyhedralSet1D.empty(), canonicalize([iv(NEG_INF, POS_INF)]))


# -- the parser and kernel against a cell-bitmask model ------------------
#
# Expressions from the grammar of setparse on the half-integer grid -4..4:
# 'u', '|', '&', '\', '!', parentheses, point sets, rays and closed ends,
# with now and then a malformed literal.  The model gives each literal one
# bit per elementary cell of the whole grid, from _cell_in on its raw
# pieces, applies the operators bitwise with the grammar's precedence, and
# reads the canonical set off the cells with scan_set: it shares nothing
# with the sweeps or the merge.

GRID = [Fraction(n, 2) for n in range(-8, 9)]
CELLS = _elementary_cells(GRID)
FULL = (1 << len(CELLS)) - 1


def cell_mask(pieces) -> int:
    return sum(1 << c for c, cell in enumerate(CELLS) if _cell_in(pieces, cell))


def mask_chi(mask: int) -> int:
    """Points (odd cells) count +1, open cells (even) -1."""
    return sum(1 if c % 2 else -1 for c in range(len(CELLS)) if mask >> c & 1)


def mask_set(mask: int) -> PolyhedralSet1D:
    return scan_set(GRID, [bool(mask >> c & 1) for c in range(len(CELLS))])


@st.composite
def number_texts(draw, x: Fraction) -> str:
    """x as the grammar allows it: reduced, or over a multiple of its denominator."""
    k = draw(st.sampled_from([1, 1, 2, 3]))
    return str(x) if k == 1 else f"{x.numerator * k}/{x.denominator * k}"


@st.composite
def bound_texts(draw, bound: ExtendedRational) -> str:
    if bound == NEG_INF:
        return "-inf"
    if bound == POS_INF:
        return draw(st.sampled_from(["inf", "+inf"]))
    return draw(number_texts(bound.value))


@st.composite
def literals(draw):
    """(text, mask) of one literal; the mask is None if the literal is malformed."""
    if draw(st.integers(0, 4)) == 0:
        values = draw(st.lists(grid, max_size=3))
        texts = [draw(number_texts(x)) for x in values]
        return "{" + ", ".join(texts) + "}", cell_mask([Point(x) for x in values])
    a, b = sorted(draw(st.lists(grid, min_size=2, max_size=2, unique=True)))
    lo = NEG_INF if draw(st.integers(0, 7)) == 0 else ext(a)
    hi = POS_INF if draw(st.integers(0, 7)) == 0 else ext(b)
    closed_lo = lo.is_finite and draw(st.booleans())
    closed_hi = hi.is_finite and draw(st.booleans())
    flaw = draw(st.integers(0, 79))
    if flaw == 0:
        lo, hi = hi, lo  # reversed, or an end at the wrong infinity
    elif flaw == 1:
        hi = lo
    elif flaw == 2:
        lo, closed_lo = NEG_INF, True
    space = draw(st.sampled_from(["", " "]))
    text = (f"{'[' if closed_lo else '('}{draw(bound_texts(lo))},{space}"
            f"{draw(bound_texts(hi))}{']' if closed_hi else ')'}")
    if flaw < 3:
        return text, None
    pieces = [OpenInterval(lo, hi)]
    pieces += [Point(lo.value)] if closed_lo else []
    pieces += [Point(hi.value)] if closed_hi else []
    return text, cell_mask(pieces)


OPERATORS = ["u", "|", "&", "\\"]


def evaluate(masks: list, ops: list):
    """The grammar's precedence: '&' binds tighter than '\\' (left to
    right), and '\\' tighter than 'u' and '|'.  None if any operand is."""
    if None in masks:
        return None
    unions = [[[masks[0]]]]  # union terms, of difference terms, of '&' operands
    for op, mask in zip(ops, masks[1:]):
        if op in ("u", "|"):
            unions.append([[mask]])
        elif op == "\\":
            unions[-1].append([mask])
        else:
            unions[-1][-1].append(mask)

    def difference(terms):
        first, *rest = (reduce(and_, term, FULL) for term in terms)
        return first & ~reduce(or_, rest, 0)

    return reduce(or_, map(difference, unions), 0)


def chains(atoms):
    """atom (op atom)*, with the operators spaced or not."""
    def build(drawn):
        operands, ops, spaces = drawn
        text = operands[0][0]
        for op, space, (operand, _) in zip(ops, spaces, operands[1:]):
            text += f"{space}{op}{space}" if op != "u" else f" u{space}"
            text += operand
        return text, evaluate([mask for _, mask in operands], ops)

    def with_operators(operands):
        n = len(operands) - 1
        return st.tuples(st.just(operands),
                         st.lists(st.sampled_from(OPERATORS), min_size=n, max_size=n),
                         st.lists(st.sampled_from(["", " "]), min_size=n, max_size=n))

    return st.lists(atoms, min_size=1, max_size=4).flatmap(with_operators).map(build)


def negated(atom):
    text, mask = atom
    return "!" + text, None if mask is None else FULL & ~mask


def grouped(chain):
    text, mask = chain
    return f"({text})", mask


# atom := literal | '(' chain ')' | '!' atom
atoms = st.recursive(
    literals(),
    lambda inner: st.one_of(chains(inner).map(grouped), inner.map(negated)),
    max_leaves=12,
)
expressions = chains(atoms)


def as_printed(bound_text: str) -> str:
    """A bound as the grammar writes it, as str prints the value."""
    if bound_text.endswith("inf"):
        return "-inf" if bound_text.startswith("-") else "inf"
    return str(Fraction(bound_text))


def assert_names_bounds_as_written(text: str, message: str):
    """A malformed-interval refusal names its literal's bounds unscaled."""
    refusal = re.fullmatch(
        r"malformed interval: (\S+) >= (\S+) \(interval starting at position (\d+)\)", message)
    if refusal is None:
        return
    position = int(refusal[3])
    lower, upper = re.match(r"[(\[]([^,]+), ?([^)\]]+)", text[position:]).groups()
    assert refusal.groups()[:2] == (as_printed(lower), as_printed(upper))


class TestGrammarAgainstCellModel:
    # Each example parses on both sides of the common-denominator guard: on
    # scaled integers under MAX_SCALE_BITS, and on Fractions with the guard
    # at 0, where every expression that writes a denominator passes it.
    @settings(max_examples=300, deadline=None)
    @given(expressions)
    def test_parse_and_measure_match_the_model(self, expression):
        text, mask = expression
        self.check(text, mask)
        with mock.patch.object(interval_sets, "MAX_SCALE_BITS", 0):
            self.check(text, mask)

    @staticmethod
    def check(text, mask):
        if mask is None:
            with pytest.raises(ParseError) as err:
                parse_set_expression(text)
            assert_names_bounds_as_written(text, str(err.value))
        else:
            parsed = parse_set_expression(text)
            assert parsed == mask_set(mask)
            TestLiteralConstruction.assert_like_checked(parsed)
            assert all(type(x) is Fraction for x in parsed.coords)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["measure", text, "--json"])
        assert code == (2 if mask is None else 0)
        report = json.loads(out.getvalue())
        if mask is None:
            assert report["error"]["class"] == "input"
        else:
            assert report["results"]["euler_measure"]["value"] == str(mask_chi(mask))
            assert report["results"]["canonical"] == str(mask_set(mask))

    def test_refusal_check_reads_the_literal(self):
        text = "{1/3} u (4/6, 1/3]"
        message = "malformed interval: 2/3 >= 1/3 (interval starting at position 8)"
        with pytest.raises(ParseError) as err:
            parse_set_expression(text)
        assert str(err.value) == message
        assert_names_bounds_as_written(text, message)
        with pytest.raises(AssertionError):
            assert_names_bounds_as_written(text, message.replace("2/3", "4/6"))

    def test_denominators_past_the_guard_parse_on_fractions(self):
        # the k-th literal is written over the k-th prime above 2^64, so the
        # denominators together, more than 64 bits each, pass the guard
        primes = list(itertools.islice(sympy.primerange(2 ** 64, 2 ** 65),
                                       interval_sets.MAX_SCALE_BITS // 64 + 1))
        assert math.prod(primes).bit_length() > interval_sets.MAX_SCALE_BITS
        rng = random.Random(7)
        literals = []
        for p in primes:
            lo = rng.randrange(-50 * p, 50 * p)
            hi = lo + rng.randrange(1, 3 * p)
            if rng.random() < 0.2:
                literals.append(f"{{{lo}/{p}}}")
            else:
                literals.append(f"{rng.choice('([')}{lo}/{p},{hi}/{p}{rng.choice(')]')}")
        text = " u ".join(literals)
        assert setparse._Parser(text).scale is None
        parsed = parse_set_expression(text)
        pieces = [piece for one in literals for piece in parse_set_expression(one).pieces]
        assert parsed == PolyhedralSet1D.from_pieces(pieces)
        assert all(type(x) is Fraction for x in parsed.coords)

    def test_model_reads_precedence(self):
        a, b, c = (cell_mask([OpenInterval(ext(x), ext(x + 2))]) for x in (-4, -3, -2))
        assert evaluate([a, b, c], ["u", "&"]) == a | (b & c)
        assert evaluate([a, b, c], ["\\", "\\"]) == a & ~b & ~c
        assert evaluate([a, b, c], ["&", "\\"]) == (a & b) & ~c
        assert evaluate([a, b, c], ["\\", "&"]) == a & ~(b & c)


# Pieces of expressions and characters the grammar refuses or takes only
# inside a token: non-ASCII digits, Unicode spaces, a bare sign or slash.
FRAGMENTS = [
    "(", ")", "[", "]", "{", "}", ",", "u", " u ", "|", "&", "\\", "!", "0", "1", "12", "-3",
    "1/2", "-7/3", "4/6", "1/0", "inf", "+inf", "-inf", "(0,1)", "[1/2, 3]", "{0, 1/3}",
    "(-inf,0)", "i", "f", "/", "+", "-", "x", "\u0663", "\uff15", " ", "\t", "\u00a0",
    "\u2003", "\u3000",
]


class TestTokenScanAgainstReference:
    """The parser against the token-stream parser it replaced
    (tests/setparse_reference.py): the same set, or the same ParseError."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join),
                     expressions.map(lambda expression: expression[0])))
    @example("(" * MAX_NESTING_DEPTH + "(0,1)" + ")" * MAX_NESTING_DEPTH)
    @example("(" * (MAX_NESTING_DEPTH + 1) + "(0,1)" + ")" * (MAX_NESTING_DEPTH + 1))
    @example("!" * (MAX_NESTING_DEPTH + 1) + "{0}")
    def test_same_set_or_same_error(self, text):
        self.check(text)
        with mock.patch.object(interval_sets, "MAX_SCALE_BITS", 0):
            self.check(text)

    @staticmethod
    def check(text):
        def outcome(parse):
            try:
                value = parse(text)
            except ParseError as exc:
                return str(exc), exc.position
            assert all(type(x) is Fraction for x in value.coords)
            return value

        assert outcome(parse_set_expression) == outcome(setparse_reference.parse_set_expression)

    # Shapes the literal tokens take whole, refuse as literals (reversed or
    # closed at infinity, a zero denominator) or split into characters.
    @pytest.mark.parametrize("text", [
        "(1,0)", "[-inf,0]", "(0,+inf]", "(inf,0)",
        "(0,1/0)", "{1/0}", "{1,,2}", "{ }",
        "(0,1)(0,1)", "((0,1)", "(0,1", "((0,1))", "( (0,1) )",
        "(0,1)u(2,3)", "( 0 , 1 ]", "!(0,1)",
    ])
    def test_literal_token_shapes(self, text):
        self.check(text)
        with mock.patch.object(interval_sets, "MAX_SCALE_BITS", 0):
            self.check(text)

    @pytest.mark.parametrize("text", [
        "(0,1{digits})", "{{{digits}}}", "(0,1/{digits})", "(-{digits}/7,0) u {{1/3}}",
    ])
    def test_numbers_past_the_digit_limit(self, text):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            text = text.format(digits="3" * 5000)
            with pytest.raises(ParseError, match="too many digits"):
                parse_set_expression(text)
            self.check(text)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_character_tokens_only_for_refused_texts(self):
        # a text that parses is read on literal tokens alone, and its
        # literals are written without a bound object or segment
        calls = []

        def tokenize(text):
            calls.append(text)
            return setparse._tokenize(text)

        def unused(*args):
            raise AssertionError("built through the checked constructors")

        text = "!([1/2, 3) u {0, 4/6} & (-inf, 2]) | (5,+inf) \\ {7}"
        with mock.patch.object(setparse._Parser, "_tokenize", staticmethod(tokenize)):
            with mock.patch.object(setparse, "segment", unused), \
                    mock.patch.object(setparse, "_finite", unused):
                assert parse_set_expression(text) == setparse_reference.parse_set_expression(text)
            assert calls == []
            with pytest.raises(ParseError, match="position 5"):
                parse_set_expression("(0,1)(0,1)")
            assert calls == ["(0,1)(0,1)"]


POINT_SET = "{" + ", ".join(map(str, range(10_000))) + "}"


class TestLiteralTokensAtScale:
    """Long literals and long chains parse in time linear in their length:
    the literal regex neither backtracks quadratically nor recurses."""

    @staticmethod
    def timed(text):
        start = time.perf_counter()
        try:
            value = parse_set_expression(text)
        except ParseError as exc:
            value = str(exc), exc.position
        assert time.perf_counter() - start < 2
        return value

    def test_ten_thousand_points(self):
        expected = PolyhedralSet1D.from_pieces(Point(x) for x in range(10_000))
        assert self.timed(POINT_SET) == expected

    def test_ten_thousand_points_and_a_trailing_comma(self):
        text = POINT_SET[:-1] + ",}"
        with pytest.raises(ParseError) as err:
            setparse_reference.parse_set_expression(text)
        assert self.timed(text) == (str(err.value), err.value.position)

    def test_chain_of_four_thousand_literals(self):
        # each literal overlaps the next and closes its upper end
        text = "".join(f"{' u ' if i % 3 else ' | ' if i else ''}({2 * i}/3, {2 * i + 3}/3]"
                       for i in range(4000))
        pieces = [piece for i in range(4000)
                  for piece in (iv(Fraction(2 * i, 3), Fraction(2 * i + 3, 3)),
                                  Point(Fraction(2 * i + 3, 3)))]
        assert self.timed(text) == PolyhedralSet1D.from_pieces(pieces)


def test_sets_scaling_tool_runs():
    tool = pathlib.Path(__file__).resolve().parent.parent / "tools" / "sets_scaling.py"
    out = subprocess.run([sys.executable, str(tool), "--sizes", "8,16"],
                         capture_output=True, text=True, timeout=120, check=True)
    rows = json.loads(out.stdout)["rows"]
    assert [(row["kind"], row["literals"]) for row in rows] == [
        (kind, n) for kind in ("plain", "combined", "fractional", "coprime", "long", "refused",
                               "malformed")
        for n in (8, 16)]
    assert all(row["parse_ms"] > 0 and row["result_pieces"] >= 0 for row in rows)


def test_kernel_scaling_tool_runs():
    tool = pathlib.Path(__file__).resolve().parent.parent / "tools" / "kernel_scaling.py"
    out = subprocess.run([sys.executable, str(tool), "--sizes", "8,16"],
                         capture_output=True, text=True, timeout=120, check=True)
    rows = json.loads(out.stdout)["rows"]
    assert [(row["kind"], row["pieces"]) for row in rows] == [
        (kind, n) for kind in ("den1", "den2", "den7", "mixed", "wide") for n in (8, 16)]
    timed = ("from_pieces_ms", "union_ms", "intersect_ms", "difference_ms", "restrict_open_ms")
    assert all(row[key] > 0 for row in rows for key in timed)
    assert all(row["union_coordinates"] > 0 and row["denominator_bits"] >= 1 for row in rows)
