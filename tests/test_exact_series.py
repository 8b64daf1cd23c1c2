import functools
import json
import operator
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from eulermeasure import exact_series, fibonacci_subsets, map_spaces, power_gizmos
from eulermeasure.errors import (
    EulerMeasureError,
    InputError,
    InternalCheckError,
    RegularizationError,
    ResourceLimitError,
)
from eulermeasure.exact_series import (
    EulerSeries,
    Polynomial,
    RationalFunction,
    Recurrence,
    Regularized,
    SeriesPrefix,
    binomial_closed_form,
    binomial_prefix,
    closed_series,
    continue_series,
    eval_at_one,
    fit_series,
    min_recurrence,
    poly_gcd,
    series_window,
    solve_linear_system,
    to_rational_function,
)
from eulermeasure.interval_sets import points
from eulermeasure.limits import MAX_TERMS
from eulermeasure.partition_combinatorics import gen_binomial
from eulermeasure.setparse import parse_set_expression as parse
from eulermeasure.verify import random_rational_function, set_with_chi

F = Fraction


def poly(*coeffs):
    return Polynomial(tuple(F(c) for c in coeffs))


def rf(num, den):
    return RationalFunction(poly(*num), poly(*den))


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert poly(1, 2, 0, 0) == poly(1, 2)
        assert poly(0, 0).is_zero

    def test_arithmetic(self):
        assert poly(1, 1) * poly(1, 1) == poly(1, 2, 1)
        assert poly(1, 2) + poly(0, -2, 3) == poly(1, 0, 3)
        assert poly(1, 1) ** 3 == poly(1, 3, 3, 1)

    def test_evaluate(self):
        assert poly(1, 4, 3).evaluate(1) == 8
        assert poly(0, -1).evaluate(F(1, 2)) == F(-1, 2)

    def test_gcd(self):
        a = poly(1, 1) * poly(1, 3)
        b = poly(1, 1) * poly(2, 5)
        assert poly_gcd(a, b) == poly(1, 1)


class TestRationalFunction:
    def test_normalization(self):
        # 2 + 2t over 2 + 8t + 6t^2 reduces and rescales to 1/(1+3t)
        f = rf([2, 2], [2, 8, 6])
        assert f == rf([1], [1, 3])

    def test_zero_denominator(self):
        with pytest.raises(InputError):
            rf([1], [0])

    def test_no_series_at_zero(self):
        with pytest.raises(InputError):
            rf([1], [0, 1])

    def test_expand(self):
        assert rf([1], [1, 1]).expand(5) == (1, -1, 1, -1, 1, -1)
        assert rf([0, -1], [1, 4, 3]).expand(4) == (0, -1, 4, -13, 40)

    def test_pole_at_one(self):
        with pytest.raises(RegularizationError):
            eval_at_one(rf([1], [1, -1]))

    def test_pole_elsewhere(self):
        # 1/(1-2t) has its pole at t=1/2; the value at t=1 is still defined
        assert eval_at_one(rf([1], [1, -2])) == -1


class TestSeriesPrefix:
    def test_needs_one_coefficient(self):
        with pytest.raises(InputError):
            SeriesPrefix((), "rank")


class TestBinomialPrefix:
    def test_alternating(self):
        prefix, closed = binomial_prefix(-1, 1, 6)
        assert prefix.coefficients == (1, -1, 1, -1, 1, -1, 1)
        assert closed == rf([1], [1, 1])

    def test_scaled_geometric(self):
        prefix, closed = binomial_prefix(-1, 3, 4)
        assert prefix.coefficients == (1, -3, 9, -27, 81)
        assert closed == rf([1], [1, 3])

    def test_positive_power_is_polynomial(self):
        prefix, closed = binomial_prefix(2, 1, 4)
        assert prefix.coefficients == (1, 2, 1, 0, 0)
        assert closed == rf([1, 2, 1], [1])


class TestMinRecurrence:
    def test_geometric(self):
        rec = min_recurrence(SeriesPrefix((1, -1, 1, -1, 1, -1, 1, -1), "rank"), 3)
        assert rec.order == 1 and rec.taps == (-1,)

    def test_two_pole_sequence(self):
        seq = (0, -1, 4, -13, 40, -121, 364, -1093, 3280, -9841)
        rec = min_recurrence(SeriesPrefix(seq, "rank"), 4)
        assert rec.order == 2 and rec.taps == (-4, -3)

    def test_returns_none_without_recurrence(self):
        # regions of a circle cut by chords: no order-2 recurrence
        seq = (1, 2, 4, 8, 16, 31)
        assert min_recurrence(SeriesPrefix(seq, "rank"), 2) is None

    def test_zero_series(self):
        rec = min_recurrence(SeriesPrefix((0,) * 8, "rank"), 3)
        assert rec.order == 0

    def test_prefix_too_short(self):
        with pytest.raises(InputError):
            min_recurrence(SeriesPrefix((1, 2, 3), "rank"), 4)


class TestSeriesWindow:
    @pytest.mark.parametrize(
        "bound,terms,max_order,expected",
        [
            (0, None, None, (1, 0)),
            (1, None, None, (3, 1)),
            (2, None, None, (6, 2)),
            (24, None, None, (94, 24)),
            (2, 30, None, (30, 2)),
            (24, 30, None, (30, 24)),
            (2, 5, 8, (5, 2)),
            (2, None, 5, (6, 2)),
            (24, None, 2, (94, 24)),
        ],
    )
    def test_window(self, bound, terms, max_order, expected):
        # expected: the terms ceiling and the order that caps the fit, which
        # is the bound itself; a max_order is refused by name
        if max_order is not None:
            with pytest.raises(TypeError, match="max_order"):
                series_window(bound, terms, max_order=max_order)
        assert (series_window(bound, terms), bound) == expected

    def test_default_window_meets_fit_contract(self):
        for bound in range(30):
            terms = series_window(bound)
            assert (terms + 2) // 2 >= 2 * bound and terms + 1 >= 2 * bound + 2

    @pytest.mark.parametrize("terms", [0, -3])
    def test_bad_terms_named_with_minimum(self, terms):
        with pytest.raises(InputError, match="terms must be at least 1"):
            series_window(2, terms)

    def test_terms_ceiling(self):
        # fib on 2000 pieces has order bound 2001 and the default terms 8002
        assert series_window(2001) == 8002
        assert series_window(2, MAX_TERMS) == MAX_TERMS
        for bound, terms, origin in (
            (2, MAX_TERMS + 1, f"terms {MAX_TERMS + 1} exceeds"),
            (2502, None, "terms 10006 (the default for order bound 2502) exceeds"),
        ):
            with pytest.raises(ResourceLimitError, match=re.escape(origin)):
                series_window(bound, terms)
        with pytest.raises(ResourceLimitError, match="terms"):
            binomial_prefix(-1, 1, MAX_TERMS + 1)


class TestToRationalFunction:
    def test_alternating(self):
        prefix = SeriesPrefix((1, -1, 1, -1, 1, -1), "rank")
        assert to_rational_function(prefix, Recurrence((F(-1),))) == rf([1], [1, 1])

    def test_two_pole(self):
        seq = (0, -1, 4, -13, 40, -121, 364, -1093)
        prefix = SeriesPrefix(seq, "rank")
        got = to_rational_function(prefix, Recurrence((F(-4), F(-3))))
        assert got == rf([0, -1], [1, 4, 3])
        assert eval_at_one(got) == F(-1, 8)

    def test_scaled_geometric(self):
        prefix = SeriesPrefix((2, -6, 18, -54), "rank")
        got = to_rational_function(prefix, Recurrence((F(-3),)))
        assert got == rf([2], [1, 3])
        assert eval_at_one(got) == F(1, 2)


class TestEvalAtOne:
    def test_paper_values(self):
        assert eval_at_one(rf([1], [1, 1])) == F(1, 2)
        assert eval_at_one(rf([0, -1], [1, 4, 3])) == F(-1, 8)
        # map pairs at b=2: (1/2)(b^2/(1+(b^4-1)t) - b/(1+(b^2-1)t))
        assert eval_at_one(rf([1, -9], [1, 18, 45])) == F(-1, 8)


class TestRoundTrip:
    def test_random_rational_functions(self):
        rng = random.Random(17)
        for _ in range(40):
            f = random_rational_function(rng)
            bound = max(f.denominator.degree, f.numerator.degree + 1)
            n = max(2 * (f.numerator.degree + f.denominator.degree) + 2, 4 * bound + 2)
            prefix = SeriesPrefix(f.expand(n - 1), "rank")
            rec = min_recurrence(prefix, bound)
            assert rec is not None
            assert to_rational_function(prefix, rec) == f

    def test_continue_series_metadata(self):
        prefix = SeriesPrefix(rf([1], [1, 1]).expand(11), "rank")
        series = continue_series(prefix)
        assert series.closed_form == rf([1], [1, 1])
        # no order bound: all 12 coefficients are used; 2 fix the order-1 fit
        assert series.fit_terms == 2 and len(series.prefix) == 12
        assert series.order_bound is None
        assert series.regularized_value() == F(1, 2)

    def test_continue_series_failure(self):
        with pytest.raises(RegularizationError):
            continue_series(SeriesPrefix((1, 2, 4, 8, 16, 31, 57, 99, 163), "rank"))

    def test_series_without_closed_form(self):
        # the closed form is required: a series cannot be built without one
        with pytest.raises(TypeError):
            EulerSeries(SeriesPrefix((1, 2), "rank"))


class TestFitSeries:
    def test_stops_at_certificate(self):
        asked = []

        def coefficient(k):
            asked.append(k)
            return (-3) ** k

        series = fit_series(coefficient, 3)
        # order 1 and bound 3 certify on 4 coefficients, far below the ceiling 10
        assert asked == [0, 1, 2, 3]
        assert series.closed_form == rf([1], [1, 3]) and series.order_bound == 3

    def test_terms_is_a_hard_ceiling(self):
        asked = []

        def coefficient(k):
            asked.append(k)
            return k * k

        with pytest.raises(RegularizationError, match="raise terms"):
            fit_series(coefficient, 3, terms=4)
        assert max(asked) == 4

    def test_uncertified_fit_needs_length_contract(self):
        # 1/(1-t)^2 has order 2; against bound 5 its six coefficients
        # c_0..c_5 do not certify it, but they meet the 2L + 2 contract
        series = fit_series(lambda k: k + 1, 5, terms=5)
        assert series.closed_form == rf([1], [1, -2, 1]) and series.order_bound is None

    def test_counts_above_their_bound_are_a_bug(self):
        # a nonzero c_0 needs order 1, above a proven bound of 0; for d >= 1
        # the certificate stops every fit before its length passes d
        for engine in (exact_series._massey_fit, exact_series._rational_massey_fit):
            for c0 in (1, F(1, 3)):
                with pytest.raises(InternalCheckError, match="above the proven order bound 0"):
                    engine(lambda k: c0, 5, 0, "rank")


class TestClosedSeries:
    def test_window(self):
        closed = binomial_closed_form(-2, 1)  # 1/(1+t)^2, order 2
        asked = []

        def coefficient(k):
            asked.append(k)
            return (-1) ** k * (k + 1)

        assert closed_series(coefficient, closed, 2).closed_form == closed
        assert asked == list(range(7))  # the default window, 4d - 2 = 6
        assert closed_series(coefficient, closed, 2, 0).prefix.coefficients == (1,)
        with pytest.raises(InputError, match="terms must be at least 0"):
            closed_series(coefficient, closed, 2, -1)
        with pytest.raises(ResourceLimitError, match="terms"):
            closed_series(coefficient, closed, 2, MAX_TERMS + 1)
        assert asked == list(range(7)) + [0]

    def test_fraction_coefficients(self):
        prefix, closed = binomial_prefix(-1, F(1, 3), 5)
        series = closed_series(prefix.coefficients.__getitem__, closed, 1, 5)
        assert series.prefix == prefix


class TestRegularize:
    def test_agreeing_routes_return_the_value(self):
        series = EulerSeries(SeriesPrefix((1, -1, 1), "rank"), rf([1], [1, 1]))
        assert Regularized.of(series, {"closed": F(1, 2), "formula": F(1, 2)}).value == F(1, 2)
        assert Regularized.of(series, {}).value == F(1, 2)

    def test_short_uncertified_fit_asks_for_terms(self):
        # c_0 = c_1 = 0 fits order 0, which bound 4 cannot certify on 2 coefficients
        series = fit_series(lambda k: 0, 4, terms=1)
        assert series.order_bound is None
        with pytest.raises(RegularizationError, match="order-0 fit gives 0, but 2 coefficients "
                           "cannot verify it against order bound 4; raise terms"):
            Regularized.of(series, {"formula": F(9, 128)}, order_bound=4)

    def test_record_trims_counts_and_names_the_formula_last(self):
        series = EulerSeries(SeriesPrefix((1, -1, 1), "rank"), rf([1], [1, 1]))
        record = Regularized.of(series, {"series": F(1, 2), "formula": F(1, 2)}, [1, 1, 1, 1])
        assert record.counts == (1, 1, 1)
        assert record.expected == record.routes["formula"] == record.value

    @pytest.mark.parametrize("order_bound", [None, 1])
    def test_other_disagreement_names_every_route(self, order_bound):
        series = fit_series(lambda k: (-1) ** k, 1)  # certified 1/(1+t)
        with pytest.raises(InternalCheckError) as err:
            Regularized.of(series, {"series": F(1, 2), "formula": F(1, 3), "other": F(1, 2)},
                           order_bound=order_bound)
        assert str(err.value) == (
            "route disagreement: series gives 1/2, formula gives 1/3, other gives 1/2"
        )


# The gizmo selection sizes of the benchmark's regularize workload.
GIZMO_KS = ((2,), (3,), (2, 2), (2, 3), (3, 3), (2, 2, 2))
# One Gauss-Jordan oracle fit costs about d^4; at order 24 it already
# takes seconds, so deeper gizmos (orders 27, 32, 36) are left out here and
# held against the Fraction engine instead.
ORACLE_MAX_ORDER = 24


def _gizmo_case(chi, ks):
    spec = power_gizmos.GizmoSpec(ks)
    totals = []
    return (
        lambda k: gen_binomial(chi, k) * power_gizmos.gizmo_support_count(spec, k, totals),
        lambda: power_gizmos.gizmo_measure(set_with_chi(chi), spec).series,
    )


def _fib_bound(p):
    """The parity series is a polynomial of degree <= pieces."""
    return len(p.pieces) + 1


def _fib_case(p):
    """fib takes its series from the polynomial's closed form and fits
    nothing; the certified fit of the same coefficients must find it."""
    def fit():
        poly = fibonacci_subsets.parity_polynomial(p)
        series = fit_series(lambda k: poly[k] if k < len(poly) else 0, _fib_bound(p))
        assert series.closed_form == fibonacci_subsets.fibonacci_measure(p).series.closed_form
        return series

    return lambda k: fibonacci_subsets.parity_strata_coefficient(p, k, cap=100), fit


# Brute-force pair counts of the 4d-2 window take seconds for b = 3; both
# oracles share them.
_pair_count = functools.cache(map_spaces.map_pair_count)


def _pair_case(bsize):
    return (
        lambda k: (-1) ** k * _pair_count(bsize, k),
        lambda: map_spaces.map_pair_measure(bsize).series,
    )


def _fib_sets():
    for n in range(1, 8):
        yield f"{n}-points", points(range(n))
        yield f"{n}-intervals", parse(" u ".join(f"({2 * i},{2 * i + 1})" for i in range(n)))
        mixed = " u ".join(f"{{{2 * i}}}" if i % 2 else f"({2 * i},{2 * i + 1})" for i in range(n))
        yield f"{n}-mixed", parse(mixed)


def _corpus():
    """(id, order bound, factory): the factory gives the series' coefficient
    callable and the construction's own certified EulerSeries."""
    cases = []
    for chi in range(-4, 4):
        for ks in GIZMO_KS:
            bound = power_gizmos._order_bound(chi, power_gizmos.GizmoSpec(ks).fit_dimension)
            cases.append((f"gizmo-chi{chi}-ks{ks}", bound, lambda c=chi, k=ks: _gizmo_case(c, k)))
    for name, p in _fib_sets():
        cases.append((f"fib-{name}", _fib_bound(p), lambda p=p: _fib_case(p)))
    for bsize in (2, 3):
        cases.append((f"pairs-b{bsize}", map_spaces.PAIR_ORDER_BOUND, lambda b=bsize: _pair_case(b)))
    return cases


CORPUS = _corpus()


def _full_window(coefficient, bound):
    terms = series_window(bound)
    return SeriesPrefix(tuple(coefficient(k) for k in range(terms + 1)))


@pytest.mark.parametrize(
    "bound,factory",
    [(b, f) for _, b, f in CORPUS if b <= ORACLE_MAX_ORDER],
    ids=[i for i, b, _ in CORPUS if b <= ORACLE_MAX_ORDER],
)
def test_certified_fit_matches_gauss_oracle(bound, factory):
    coefficient, construct = factory()
    series = construct()
    assert series.order_bound == bound
    assert len(series.prefix) >= series.recurrence.order + bound
    window = _full_window(coefficient, bound)
    assert window.coefficients[: len(series.prefix)] == series.prefix.coefficients
    # a verified order <= bound on the whole 4d-2 window also checks the bound
    rec = min_recurrence(window, bound)
    assert rec is not None
    assert to_rational_function(window, rec) == series.closed_form


@pytest.mark.parametrize("bound,factory", [(b, f) for _, b, f in CORPUS],
                         ids=[i for i, _, _ in CORPUS])
def test_certified_fit_matches_rational_engine(bound, factory):
    coefficient, construct = factory()
    series = construct()
    grading = series.prefix.grading
    assert series == exact_series._rational_massey_fit(
        coefficient, series_window(bound), bound, grading
    )


def _sympy_expr(poly, t):
    return sum(sympy.Rational(c.numerator, c.denominator) * t ** i
               for i, c in enumerate(poly.coefficients))


@pytest.mark.parametrize(
    "bound,factory",
    [(b, f) for _, b, f in CORPUS if b <= 8],
    ids=[i for i, b, _ in CORPUS if b <= 8],
)
def test_certified_fit_matches_sympy_oracle(bound, factory):
    coefficient, construct = factory()
    series = construct()
    window = _full_window(coefficient, bound)
    if not any(window.coefficients):
        assert series.closed_form.numerator.is_zero
        return
    k, t = sympy.symbols("k t")
    terms = tuple(sympy.Rational(c.numerator, c.denominator) for c in window.coefficients)
    taps, gf = sympy.sequence(terms, (k, 0, len(terms) - 1)).find_linear_recurrence(
        len(terms), gfvar=t
    )
    # sympy's order is at most half the window, so window >= its order + bound
    assert gf is not None and len(taps) <= bound
    ours = _sympy_expr(series.closed_form.numerator, t) / _sympy_expr(series.closed_form.denominator, t)
    assert sympy.cancel(gf - ours) == 0


@st.composite
def _integer_prefixes(draw):
    n = draw(st.integers(2, 14))
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    else:
        taps = draw(st.lists(st.integers(-3, 3), max_size=4))
        values = draw(st.lists(st.integers(-9, 9), min_size=len(taps), max_size=len(taps)))
        while len(values) < n:
            values.append(sum(tap * values[-1 - i] for i, tap in enumerate(taps)))
        values = values[:n]
        if draw(st.booleans()):
            values[draw(st.integers(0, n - 1))] += draw(st.integers(1, 3))
    return SeriesPrefix(tuple(values))


@settings(max_examples=300, deadline=None)
@given(_integer_prefixes())
def test_continue_series_agrees_with_gauss_oracle(prefix):
    # the oracle's deepest order is the 2L + 2 contract of continue_series
    rec = min_recurrence(prefix, (len(prefix) - 2) // 2)
    try:
        series = continue_series(prefix)
    except RegularizationError:
        assert rec is None
        return
    taps, coeffs = series.recurrence.taps, prefix.coefficients
    assert all(coeffs[k] == sum(tap * coeffs[k - 1 - i] for i, tap in enumerate(taps))
               for k in range(len(taps), len(coeffs)))
    assert len(prefix) >= 2 * series.recurrence.order + 2
    if rec is not None:
        assert series.closed_form == to_rational_function(prefix, rec)


_PRIME = 2 ** 61 - 1
_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_nonzero = _rationals.filter(bool)


@st.composite
def _polynomial_pairs(draw):
    num = Polynomial(tuple(draw(st.lists(_rationals, min_size=1, max_size=4))))
    den = Polynomial((draw(_nonzero),) + tuple(draw(st.lists(_rationals, max_size=3))))
    kind = draw(st.sampled_from(["plain", "common-factor", "lead-divisible-by-p"]))
    if kind == "common-factor":
        g = Polynomial((draw(_nonzero),) + tuple(draw(st.lists(_rationals, max_size=1))) + (draw(_nonzero),))
        num, den = num * g, den * g
    elif kind == "lead-divisible-by-p":
        lead = Fraction(_PRIME * draw(st.integers(1, 3)), draw(st.integers(1, 4)))
        if draw(st.booleans()):
            num = Polynomial(num.coefficients + (lead,))
        else:
            den = Polynomial(den.coefficients + (lead,))
    return num, den, kind


@settings(max_examples=200, deadline=None)
@given(_polynomial_pairs())
def test_mod_p_proof_matches_gcd_path(pair):
    num, den, kind = pair
    fast = RationalFunction(num, den)
    with mock.patch.object(exact_series, "_coprime_mod_p", return_value=False):
        slow = RationalFunction(num, den)
    assert (fast.numerator, fast.denominator) == (slow.numerator, slow.denominator)
    proven = exact_series._coprime_mod_p(num, den)
    if kind == "plain":
        assert proven == (not num.is_zero and poly_gcd(num, den).degree == 0)
    else:
        assert not proven


# -- the modular engine against the rational one --------------------------


def _expand(num, den, n):
    """c_0..c_{n-1} of num/den, den[0] == 1."""
    out = []
    for k in range(n):
        acc = num[k] if k < len(num) else 0
        out.append(acc - sum(den[i] * out[k - i] for i in range(1, min(k, len(den) - 1) + 1)))
    return out


_small_ints = st.integers(-5, 5)
_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def _fit_windows(draw):
    """Coefficients with a terms/order_bound window: integer
    rational series (integer denominator with constant term 1), rational
    series with fractional coefficients, integer rational series with one
    fractional coefficient, and plain integer noise."""
    kind = draw(st.sampled_from(["integer", "fractional", "one-fraction", "noise"]))
    n = 40
    if kind == "noise":
        values = draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n))
    else:
        entries = _fractions if kind == "fractional" else _small_ints
        den = [1] + draw(st.lists(entries, max_size=6))
        num = draw(st.lists(entries, max_size=6))
        values = _expand(num, den, n)
        if kind == "one-fraction":
            values[draw(st.integers(0, 12))] += Fraction(1, draw(st.integers(2, 5)))
    last = draw(st.integers(0, n - 1))
    order_bound = draw(st.sampled_from([None, *range(9)]))
    return values, last, order_bound


def _engine_outcome(engine, values, last, order_bound):
    asked = []

    def coefficient(k):
        asked.append(k)
        return values[k]

    try:
        outcome = engine(coefficient, last, order_bound, "rank")
    except EulerMeasureError as exc:
        outcome = (type(exc), str(exc))
    assert asked == list(range(len(asked))) and len(asked) <= last + 1
    return outcome


@pytest.mark.parametrize("primes", [exact_series._FIT_PRIMES, (3, 5, 7)], ids=["61-bit", "tiny"])
@settings(max_examples=400, deadline=None)
@given(_fit_windows())
def test_modular_engine_matches_rational_engine(primes, case):
    # Tiny primes are unlucky often: wrong lengths mod p, unstable or failing
    # lifts and exhausted primes all have to fall back to the rationals.
    with mock.patch.object(exact_series, "_FIT_PRIMES", primes):
        modular = _engine_outcome(exact_series._massey_fit, *case)
    assert modular == _engine_outcome(exact_series._rational_massey_fit, *case)


def test_fit_primes_are_distinct_61_bit_primes():
    primes = exact_series._FIT_PRIMES
    assert primes[0] == exact_series._PROOF_PRIME and len(set(primes)) == len(primes)
    assert all(p.bit_length() == 61 and sympy.isprime(p) for p in primes)


def test_integer_fit_falls_back_when_primes_run_out():
    # order 36: taps of 178 bits cannot be lifted from 2^61 - 1 alone
    coefficient, construct = _gizmo_case(-4, (3, 3))
    with mock.patch.object(exact_series, "_FIT_PRIMES", exact_series._FIT_PRIMES[:1]), \
            mock.patch.object(exact_series, "_rational_massey_fit",
                              wraps=exact_series._rational_massey_fit) as rational:
        series = fit_series(coefficient, 36)
    assert rational.call_count == 1
    assert series == construct()


def test_integer_to_rational_function():
    rng = random.Random(5)
    for _ in range(60):
        den = [1] + [rng.randint(-4, 4) for _ in range(rng.randint(0, 5))]
        num = [rng.randint(-6, 6) for _ in range(rng.randint(0, 5))]
        order = max(len(den) - 1, len(num))
        coeffs = _expand(num, den, 2 * order + 3)
        rec = Recurrence(tuple(-d for d in den[1:]) + (0,) * (order - len(den) + 1))
        assert to_rational_function(SeriesPrefix(tuple(coeffs)), rec) == rf(num, den)
        coeffs[-1] += 1
        with pytest.raises(InternalCheckError, match="re-expansion"):
            to_rational_function(SeriesPrefix(tuple(coeffs)), rec)


@st.composite
def _rational_prefixes(draw):
    """Rational prefixes: expansions of rational functions of order at
    most (n - 2) // 2 with fractional coefficients, the same with one
    coefficient corrupted, and fractional noise.  Every prefix is divided
    by 2, 3 or 5: that keeps any recurrence and makes integer expansions fractional."""
    n = draw(st.integers(2, 14))
    order = draw(st.integers(0, (n - 2) // 2))
    entries = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    kind = draw(st.sampled_from(["rational", "rational", "corrupted", "noise"]))
    if kind == "noise":
        values = draw(st.lists(entries, min_size=n, max_size=n))
    else:
        den = [1] + draw(st.lists(entries, max_size=order))
        values = _expand(draw(st.lists(entries, max_size=order)), den, n)
        if kind == "corrupted":
            values[draw(st.integers(0, n - 1))] += draw(st.integers(1, 3))
    scale = draw(st.sampled_from([2, 3, 5]))
    return SeriesPrefix(tuple(Fraction(v) / scale for v in values))


@settings(max_examples=300, deadline=None)
@given(_rational_prefixes())
def test_continue_series_agrees_with_gauss_oracle_on_rational_prefixes(prefix):
    # the oracle's deepest order is the 2L + 2 contract of continue_series
    rec = min_recurrence(prefix, (len(prefix) - 2) // 2)
    try:
        series = continue_series(prefix)
    except RegularizationError:
        assert rec is None
        return
    if rec is not None:  # the fit is minimal, and both agree on >= both orders + 2 terms
        assert series.recurrence.order <= rec.order
        assert series.closed_form == to_rational_function(prefix, rec)


def _sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows])


@st.composite
def _linear_systems(draw):
    """Tall, wide and square systems A x = b of any rank (A a product of
    random nrows x rank and rank x ncols factors); b is A x0 for a random
    x0 or, as often, random, which makes most rank-deficient systems
    inconsistent."""
    entries = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rank = draw(st.integers(0, min(nrows, ncols)))
    left = draw(st.lists(st.lists(entries, min_size=rank, max_size=rank),
                         min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                          min_size=rank, max_size=rank))
    rows = [[sum((l[t] * right[t][j] for t in range(rank)), Fraction(0)) for j in range(ncols)]
            for l in left]
    if draw(st.booleans()):
        x0 = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rhs = [sum(map(operator.mul, row, x0)) for row in rows]
    else:
        rhs = draw(st.lists(entries, min_size=nrows, max_size=nrows))
    return rows, rhs


@settings(max_examples=150, deadline=None)
@given(_linear_systems())
def test_solve_linear_system_matches_sympy(system):
    rows, rhs = system
    x = solve_linear_system(rows, rhs)
    a, b = _sympy_matrix(rows), _sympy_matrix([[v] for v in rhs])
    rank = a.rank()
    assert (x is None) == (rank != a.row_join(b).rank())
    if x is None:
        return
    assert all(sum(map(operator.mul, row, x)) == v for row, v in zip(rows, rhs))
    assert sum(1 for v in x if v) <= rank  # free variables are 0
    if rank == len(x):
        solution, _ = a.gauss_jordan_solve(b)
        assert [sympy.Rational(v.numerator, v.denominator) for v in x] == list(solution)


def test_solve_linear_system_edge_cases():
    assert solve_linear_system([], []) == []
    assert solve_linear_system([[F(0), F(0)]], [F(0)]) == [0, 0]
    assert solve_linear_system([[F(0), F(0)]], [F(1)]) is None
    assert solve_linear_system([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]], [F(1), F(1, 2)]) == [2, 0]
    assert solve_linear_system([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]], [F(1), F(1)]) is None


def test_min_recurrence_scaling_tool_runs():
    tool = pathlib.Path(__file__).resolve().parent.parent / "tools" / "min_recurrence_scaling.py"
    out = subprocess.run([sys.executable, str(tool), "--orders", "2,3"],
                         capture_output=True, text=True, timeout=120, check=True)
    rows = json.loads(out.stdout)["rows"]
    assert [(row["order"], row["coefficients"]) for row in rows] == [(2, 10), (3, 14)]
