import ast
import functools
import json
import operator
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import series_reference
from eulermeasure import exact_series, fibonacci_subsets, map_spaces, power_gizmos
from eulermeasure.errors import (
    InputError,
    InternalCheckError,
    RegularizationError,
    ResourceLimitError,
)
from eulermeasure.exact_series import (
    Construction,
    EulerSeries,
    FactoredForm,
    Polynomial,
    RationalFunction,
    Recurrence,
    SeriesPrefix,
    binomial_closed_form,
    binomial_prefix,
    continue_series,
    eval_at_one,
    min_recurrence,
    poly_gcd,
    regularize,
    series_window,
    solve_linear_system,
    times_factors,
    to_rational_function,
)
from eulermeasure.interval_sets import points
from eulermeasure.limits import MAX_TERMS
from eulermeasure.partition_combinatorics import gen_binomial
from eulermeasure.setparse import parse_set_expression as parse
from eulermeasure.verify import random_piece_set, random_rational_function, set_with_chi

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
        assert binomial_prefix(-1, 1, 6).coefficients == (1, -1, 1, -1, 1, -1, 1)

    def test_scaled_geometric(self):
        assert binomial_prefix(-1, 3, 4).coefficients == (1, -3, 9, -27, 81)

    def test_positive_power_is_polynomial(self):
        assert binomial_prefix(2, 1, 4).coefficients == (1, 2, 1, 0, 0)

    def test_rational_exponent(self):
        # binom(1/2, 2) = -1/8, the paper's check
        assert binomial_prefix(F(1, 2), 1, 3).coefficients == (1, F(1, 2), F(-1, 8), F(1, 16))

    def test_rational_base_of_a_polynomial(self):
        assert binomial_prefix(2, F(3, 2), 3).coefficients == (1, 3, F(9, 4), 0)


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
            (0, None, None, (0, 0)),
            (1, None, None, (1, 1)),
            (2, None, None, (3, 2)),
            (24, None, None, (47, 24)),
            (2, 30, None, (30, 2)),
            (24, 30, None, (30, 24)),
            (2, 5, 8, (5, 2)),
            (2, None, 5, (3, 2)),
            (24, None, 2, (47, 24)),
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
        # a closed form or fit of order L <= d is certified on L + d coefficients
        for bound in range(1, 30):
            assert series_window(bound) + 1 == 2 * bound

    @pytest.mark.parametrize("terms", [0, -3])
    def test_bad_terms_named_with_minimum(self, terms):
        # terms 0 shows one coefficient; below it is an input error
        if terms == 0:
            assert series_window(2, terms) == 0
            return
        with pytest.raises(InputError, match="terms must be at least 0, got -3"):
            series_window(2, terms)

    def test_terms_ceiling(self):
        # fib on 2000 points has order bound 2001 and the default terms 4001
        assert series_window(2001) == 4001
        assert series_window(5000) == 9999
        assert series_window(2, MAX_TERMS) == MAX_TERMS
        for bound, terms, origin in (
            (2, MAX_TERMS + 1, f"terms {MAX_TERMS + 1} exceeds"),
            (5001, None, "terms 10001 (the default for order bound 5001) exceeds"),
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
        # no order bound: all 12 coefficients are used by the order-1 fit
        assert series.recurrence.order == 1 and len(series.prefix) == 12
        assert series.order_bound is None
        assert eval_at_one(series.closed_form) == F(1, 2)

    def test_continue_series_failure(self):
        with pytest.raises(RegularizationError):
            continue_series(SeriesPrefix((1, 2, 4, 8, 16, 31, 57, 99, 163), "rank"))

    def test_continue_series_with_bound_stops_at_certificate(self):
        # order 1 and bound 2 certify on 3 of the 12 coefficients
        prefix = SeriesPrefix(rf([1], [1, 1]).expand(11), "rank")
        series = continue_series(prefix, 2)
        assert series.closed_form == rf([1], [1, 1])
        assert len(series.prefix) == 3 and series.order_bound == 2
        with pytest.raises(InputError, match="terms must be at least 1 to fit a recurrence"):
            continue_series(SeriesPrefix((1,), "rank"))

    def test_one_coefficient_prefixes(self):
        # with a bound, one coefficient is judged like any other prefix:
        # 0 has order 0, certified by 0 + 1 coefficients; 5 has order 1,
        # which bound 1 cannot certify on one coefficient and bound 0 forbids
        series = continue_series(SeriesPrefix((0,)), 1)
        assert series.closed_form == rf([], [1]) and series.order_bound == 1
        assert eval_at_one(series.closed_form) == 0
        with pytest.raises(RegularizationError, match="an order-1 recurrence needs 2 coefficients"):
            continue_series(SeriesPrefix((5,)), 1)
        with pytest.raises(InternalCheckError, match="above the proven order bound 0"):
            continue_series(SeriesPrefix((5,)), 0)

    def test_series_without_closed_form(self):
        # the closed form is required: a series cannot be built without one
        with pytest.raises(TypeError):
            EulerSeries(SeriesPrefix((1, 2), "rank"))


class TestFitSeries:
    """continue_series against the order bound of the counts' construction."""

    def test_stops_at_certificate(self):
        series = continue_series(SeriesPrefix(tuple((-3) ** k for k in range(10))), 3)
        # order 1 and bound 3 certify on 4 of the 10 coefficients
        assert series.prefix.coefficients == (1, -3, 9, -27)
        assert series.closed_form == rf([1], [1, 3]) and series.order_bound == 3

    def test_terms_is_a_hard_ceiling(self):
        # k^2 has order 3: five coefficients neither certify it against
        # bound 3 nor meet the 2L + 2 contract
        with pytest.raises(RegularizationError, match="raise terms"):
            continue_series(SeriesPrefix(tuple(k * k for k in range(5))), 3)

    def test_uncertified_fit_needs_length_contract(self):
        # 1/(1-t)^2 has order 2; against bound 5 its six coefficients
        # c_0..c_5 do not certify it, but they meet the 2L + 2 contract
        series = continue_series(SeriesPrefix(tuple(k + 1 for k in range(6))), 5)
        assert series.closed_form == rf([1], [1, -2, 1]) and series.order_bound is None

    def test_counts_above_their_bound_are_a_bug(self):
        # a nonzero c_0 needs order 1, above a proven bound of 0; for d >= 1
        # the certificate stops every fit before its length passes d
        for c0 in (1, F(1, 3)):
            with pytest.raises(InternalCheckError, match="above the proven order bound 0"):
                continue_series(SeriesPrefix((c0,) * 6), 0)


class TestClosedSeries:
    """The prefix regularize counts: the window and the certificate."""

    def test_window(self):
        asked = []

        def construction(bound):
            # 1/(1+t)^2, order 2, against the bound given
            return Construction(bound, lambda: binomial_closed_form(-2, 1),
                                lambda k: asked.append(k) or (-1) ** k * (k + 1), None,
                                lambda: {"formula": F(1, 4)})

        record = regularize(construction(2))
        assert record.series.continuation == binomial_closed_form(-2, 1)
        assert record.series.order_bound == 2 and record.value == F(1, 4)
        assert record.series.closed_form == rf([1], [1, 2, 1])
        assert asked == list(range(4))  # the certificate, L + d = 2 + 2 coefficients
        assert len(regularize(construction(5)).series.prefix) == 7  # L + d = 2 + 5
        assert regularize(construction(2), 0).series.prefix.coefficients == (1,)
        with pytest.raises(InputError, match="terms must be at least 0"):
            regularize(construction(2), -1)
        with pytest.raises(ResourceLimitError, match="terms"):
            regularize(construction(2), MAX_TERMS + 1)
        assert asked == list(range(4)) + list(range(7)) + [0]

    def test_zero_series_shows_one_coefficient_at_least(self):
        # order 0 against bound 0 still shows c_0
        record = regularize(Construction(0, lambda: FactoredForm(()), lambda k: 0, None,
                                         lambda: {"formula": F(0)}))
        assert record.series.prefix.coefficients == (0,) and record.value == 0

    def test_fraction_coefficients(self):
        # (1/3) / (1 + t): the scale makes the coefficients Fractions
        prefix = SeriesPrefix(tuple(F((-1) ** k, 3) for k in range(6)))
        closed = FactoredForm((1,), 3, ((1, 1),))
        record = regularize(Construction(1, lambda: closed, prefix.coefficients.__getitem__,
                                         None, lambda: {"formula": F(1, 6)}), 5)
        assert record.series.prefix == prefix and record.value == F(1, 6)

    def test_closed_form_above_its_bound_is_refused_before_counting(self):
        # 1/(1+t)^2 has order 2, above the declared bound 1
        counted = []
        construction = Construction(1, lambda: binomial_closed_form(-2, 1),
                                    lambda k: counted.append(k) or (-1) ** k * (k + 1), None,
                                    lambda: {"formula": F(1, 4)})
        for terms in (None, 3):
            with pytest.raises(InternalCheckError,
                               match="closed form of order 2 above the proven order bound 1"):
                regularize(construction, terms)
        assert counted == []


class TestRegularize:
    @staticmethod
    def _half(routes):
        """1/(1+t) against bound 1, with the routes given."""
        return Construction(1, lambda: binomial_closed_form(-1, 1), lambda k: (-1) ** k, None,
                            lambda: dict(routes))

    def test_agreeing_routes_return_the_value(self):
        record = regularize(self._half({"closed": F(1, 2), "formula": F(1, 2)}))
        assert record.value == F(1, 2)
        assert record.expected == record.routes["formula"] == record.value
        assert regularize(self._half({"formula": F(1, 2)})).value == F(1, 2)

    def test_short_uncertified_fit_asks_for_terms(self):
        # 1, 1 fits order 1, which bound 4 cannot certify on 2 coefficients
        # and the 2L + 2 contract cannot accept
        with pytest.raises(RegularizationError, match="an order-1 recurrence needs 4 coefficients "
                           "to verify, but terms allows 2; raise terms"):
            continue_series(SeriesPrefix((1, 1)), 4)

    @pytest.mark.parametrize("terms", [None, 1])
    def test_other_disagreement_names_every_route(self, terms):
        # 1/(1+t) on the certificate or on an explicit window: a
        # disagreement is a library bug either way
        routes = {"series": F(1, 2), "formula": F(1, 3), "other": F(1, 2)}
        with pytest.raises(InternalCheckError) as err:
            regularize(self._half(routes), terms)
        assert str(err.value) == (
            "route disagreement: series gives 1/2, formula gives 1/3, "
            "series_regularization gives 1/2, other gives 1/2"
        )


class TestConstructionRunner:
    @staticmethod
    def _geometric(steps, weight=-1):
        """2 / (1 + 3t) as weight -1 times the counts 2 * 3^k, logging each step."""
        return Construction(
            order_bound=1,
            closed_form=lambda: steps.append("closed form") or binomial_closed_form(-1, 3, 2),
            count=lambda k: steps.append(k) or 2 * 3 ** k, weight=weight,
            routes=lambda: steps.append("routes") or {"first": F(1, 2), "formula": F(1, 2)},
        )

    def test_steps_in_order_and_the_series_route_before_the_formula(self):
        steps = []
        record = regularize(self._geometric(steps))
        assert steps == ["closed form", 0, 1, "routes"]  # L + d = 1 + 1 counts
        assert record.value == F(1, 2) and record.counts == (2, 6)
        assert record.series.prefix.coefficients == (2, -6)
        assert list(record.routes) == ["first", "series_regularization", "formula"]
        assert record.series.prefix.grading == "rank"

    def test_window_refused_before_any_work(self):
        steps = []
        for terms, error in ((MAX_TERMS + 1, ResourceLimitError), (-1, InputError)):
            with pytest.raises(error):
                regularize(self._geometric(steps), terms)
        assert steps == []

    def test_weights_are_generalized_binomials(self):
        # weight m: c_k = binom(m, k) n_k, here for (1 + t)^m = sum binom(m, k) t^k
        for m in range(-4, 5):
            bound = m + 1 if m >= 0 else -m
            record = regularize(Construction(bound, lambda: binomial_closed_form(m, 1),
                                             lambda k: 1, m, lambda: {"power": F(2) ** m}), 12)
            assert record.series.prefix.coefficients == tuple(gen_binomial(m, k) for k in range(13))
            assert record.counts == (1,) * 13

    def test_no_weight_keeps_no_counts(self):
        record = regularize(self._geometric([], weight=None), 0)
        assert record.counts == () and record.series.prefix.coefficients == (2,)


class TestFactoredForm:
    def test_pole_at_one(self):
        # 1 / (1 - t): lam = -1 with a nonzero numerator has no value at t=1
        form = FactoredForm((1,), 1, ((-1, 1),))
        assert form.rational_function() == rf([1], [1, -1]) and form.order == 1
        with pytest.raises(RegularizationError, match="pole at t=1"):
            form.value_at_one()
        with pytest.raises(RegularizationError, match="pole at t=1"):
            regularize(Construction(1, lambda: form, lambda k: 1, None, lambda: {"f": F(0)}))

    def test_lam_zero_factors_are_dropped(self):
        form = FactoredForm((2,), 1, ((0, 3), (3, 1)))
        assert form.factors == ((3, 1),) and form.order == 1
        assert form.rational_function() == rf([2], [1, 3]) and form.value_at_one() == F(1, 2)

    def test_zero_numerator_is_zero_over_one(self):
        form = FactoredForm((0, 0), 5, ((2, 1), (-1, 4)))
        assert (form.numerator, form.scale, form.factors, form.order) == ((), 1, (), 0)
        assert form.rational_function() == rf([], [1]) and form.value_at_one() == 0
        assert form.certifies([0, 0, 0]) and not form.certifies([0, 1])

    def test_numerator_vanishing_at_a_pole_is_a_bug(self):
        # (2 + 4t) / ((1 + 2t)(1 + 3t)) would need reducing by 1 + 2t
        with pytest.raises(InternalCheckError, match="numerator vanishes at -1/2"):
            FactoredForm((2, 4), 1, ((2, 1), (3, 1)))
        # the same test over the integers at a higher power of lam: 1 - 4t^2 at -1/2
        with pytest.raises(InternalCheckError, match="vanishes at -1/-2"):
            FactoredForm((1, 0, -4), 7, ((-2, 3),))
        assert FactoredForm((1, 0, -4), 7, ((3, 3),)).order == 3

    def test_malformed_forms_are_a_bug(self):
        for scale, factors in ((0, ((1, 1),)), (1, ((2, 1), (2, 1))), (1, ((2, 0),))):
            with pytest.raises(InternalCheckError, match="malformed closed form"):
                FactoredForm((1,), scale, factors)

    def test_certificate_is_linear_passes(self):
        # (1 + t) / (3 (1 - 2t)^2): s * (1 - 2t)^2 * series = 1 + t
        form = FactoredForm((1, 1), 3, ((-2, 2),))
        oracle = RationalFunction(poly(F(1, 3), F(1, 3)), poly(1, -4, 4))
        coeffs = list(oracle.expand(9))
        assert form.certifies(coeffs) and form.rational_function() == oracle
        for k in range(10):
            wrong = coeffs[:k] + [coeffs[k] + F(1, 3)] + coeffs[k + 1:]
            assert not form.certifies(wrong)
        assert times_factors([1, 0, 0, 0], ((-2, 2),)) == [1, -4, 4, 0]


def _normalized_oracle(form: FactoredForm) -> RationalFunction:
    """The record through the old path: N/s over the denominator expanded
    by Polynomial products, normalized by RationalFunction's constructor."""
    den = Polynomial.constant(1)
    for lam, m in form.factors:
        den = den * poly(1, lam) ** m
    return RationalFunction(Polynomial(tuple(F(c, form.scale) for c in form.numerator)), den)


def _factored_cases():
    for chi in range(-8, 9):
        yield f"powerset-{chi}", lambda chi=chi: power_gizmos.powerset_series(set_with_chi(chi))
    for ks in ((1,), (2,), (3,), (2, 2), (2, 3), (3, 3), (2, 2, 2)):
        for chi in range(-4, 4):
            yield (f"gizmo-{chi}-{ks}", lambda chi=chi, ks=ks: power_gizmos.gizmo_measure(
                set_with_chi(chi), power_gizmos.GizmoSpec(ks)))
    for b in range(1, 5):
        for p in range(7):
            yield (f"finite-{b}-{p}", lambda b=b, p=p: map_spaces.hedral_map_measure(
                set_with_chi(-p), b))
        yield f"pairs-{b}", lambda b=b: map_spaces.map_pair_measure(b)
    for chi_b in range(-3, 4):
        yield f"chib-{chi_b}", lambda chi_b=chi_b: map_spaces.schanuel_measure(chi_b)
    rng = random.Random(27)
    for i in range(12):
        piece_set = random_piece_set(rng, 6)
        yield f"fib-{i}", lambda s=piece_set: fibonacci_subsets.fibonacci_measure(s)


FACTORED_CASES = list(_factored_cases())


@pytest.mark.parametrize("construct", [c for _, c in FACTORED_CASES],
                         ids=[i for i, _ in FACTORED_CASES])
def test_factored_form_matches_the_normalizing_constructor(construct):
    # the old path as oracle: the normalizing constructor, eval_at_one and
    # the RationalFunction's own expansion of the counted prefix
    record = construct()
    form = record.series.continuation
    oracle = _normalized_oracle(form)
    assert record.series.closed_form == oracle and form.order == oracle.order
    assert record.value == form.value_at_one() == eval_at_one(oracle)
    prefix = record.series.prefix.coefficients
    assert oracle.expand(len(prefix) - 1) == prefix


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


def _fit(coefficient, bound, grading="rank"):
    """continue_series on c_0..c_w of the default window, w = 2d - 1."""
    window = tuple(coefficient(k) for k in range(series_window(bound) + 1))
    return continue_series(SeriesPrefix(window, grading), bound)


def _fib_bound(p):
    """The parity series is a polynomial of degree <= pieces."""
    return len(p.pieces) + 1


def _fib_case(p):
    """fib takes its series from the polynomial's closed form and fits
    nothing; the certified fit of the same coefficients must find it."""
    def fit():
        poly = fibonacci_subsets.parity_polynomial(p)
        series = _fit(lambda k: poly[k] if k < len(poly) else 0, _fib_bound(p))
        assert series.closed_form == fibonacci_subsets.fibonacci_measure(p).series.closed_form
        return series

    return lambda k: fibonacci_subsets.parity_strata_coefficient(p, k), fit


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
    """c_0..c_w for w = max(4d - 2, 2d + 1): long enough for the Gauss
    oracle, which solves on the first half and verifies on the rest."""
    terms = max(4 * bound - 2, 2 * bound + 1)
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
    assert len(series.prefix) >= series.closed_form.order + bound
    window = _full_window(coefficient, bound)
    assert window.coefficients[: len(series.prefix)] == series.prefix.coefficients
    # a verified order <= bound on the whole 4d-2 window also checks the bound
    rec = min_recurrence(window, bound)
    assert rec is not None
    assert to_rational_function(window, rec) == series.closed_form


@pytest.mark.parametrize("bound,factory", [(b, f) for _, b, f in CORPUS],
                         ids=[i for i, _, _ in CORPUS])
def test_certified_fit_matches_rational_engine(bound, factory):
    # the Fraction engine on an independent count of the coefficients
    # certifies on the construction's own prefix and finds its closed form
    coefficient, construct = factory()
    series = construct()
    fit = _fit(coefficient, bound, series.prefix.grading)
    assert (fit.prefix, fit.closed_form, fit.order_bound) == (
        series.prefix, series.closed_form, bound
    )


@pytest.mark.parametrize("bsize", range(1, 7))
def test_pair_closed_form_matches_fraction_engine(bsize):
    # the gizmo closed forms meet the same engine in the corpus above; the
    # pair counts are cheap in closed form, so every b up to 6 is held here
    series = map_spaces.map_pair_measure(bsize).series
    fit = _fit(lambda k: (-1) ** k * map_spaces.finite_pair_count(bsize, k),
               map_spaces.PAIR_ORDER_BOUND, series.prefix.grading)
    assert fit.recurrence.order == series.closed_form.order
    assert (fit.prefix, fit.closed_form) == (series.prefix, series.closed_form)


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


_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_nonzero = _rationals.filter(bool)
# a leading coefficient far above every other one, as a multiple of the
# Mersenne prime 2^61 - 1
_BIG = 2 ** 61 - 1


@st.composite
def _polynomial_pairs(draw):
    num = Polynomial(tuple(draw(st.lists(_rationals, min_size=1, max_size=4))))
    den = Polynomial((draw(_nonzero),) + tuple(draw(st.lists(_rationals, max_size=3))))
    kind = draw(st.sampled_from(
        ["plain", "common-factor", "big-lead", "zero-numerator", "scaled"]))
    if kind == "common-factor":
        g = Polynomial((draw(_nonzero),) + tuple(draw(st.lists(_rationals, max_size=1))) + (draw(_nonzero),))
        num, den = num * g, den * g
    elif kind == "big-lead":
        lead = Fraction(_BIG * draw(st.integers(1, 3)), draw(st.integers(1, 4)))
        if draw(st.booleans()):
            num = Polynomial(num.coefficients + (lead,))
        else:
            den = Polynomial(den.coefficients + (lead,))
    elif kind == "zero-numerator":
        num = Polynomial()
    elif kind == "scaled":
        # a negative, non-unit constant term on both sides
        factor = -draw(st.sampled_from([F(2), F(3, 2), F(7, 4), F(6)]))
        num, den = num.scale(factor), den.scale(factor)
    return num, den, kind


@settings(max_examples=300, deadline=None)
@given(_polynomial_pairs())
def test_normalization_matches_the_fraction_euclid(pair):
    num, den, _ = pair
    a, b = num.coefficients, den.coefficients
    want_num, want_den = series_reference.normal_form(a, b)
    f = RationalFunction(num, den)
    assert (f.numerator.coefficients, f.denominator.coefficients) == (want_num, want_den)
    assert _all_fractions(f.numerator.coefficients + f.denominator.coefficients)
    assert poly_gcd(num, den).coefficients == series_reference.gcd(a, b)


# -- the integer paths against their Fraction loops (tests/series_reference.py)

_values = st.one_of(_rationals, st.integers(-6, 6))


@st.composite
def _raw_coefficients(draw):
    """Ints and Fractions, the zero polynomial and trailing zeros included."""
    return (draw(st.lists(_values, max_size=5))
            + draw(st.lists(st.sampled_from([0, F(0)]), max_size=2)))


def _all_fractions(values):
    return all(type(v) is Fraction for v in values)


@settings(max_examples=300, deadline=None)
@given(_raw_coefficients(), _raw_coefficients(), _values, _values, st.integers(0, 4))
def test_polynomial_arithmetic_matches_the_fraction_loops(a, b, factor, x, n):
    p, q = Polynomial(tuple(a)), Polynomial(tuple(b))
    ra, rb = series_reference.trim(a), series_reference.trim(b)
    assert p.coefficients == ra and q.coefficients == rb
    pairs = {
        "*": (p * q, series_reference.mul(ra, rb)),
        "+": (p + q, series_reference.add(ra, rb)),
        "-": (p - q, series_reference.sub(ra, rb)),
        "neg": (-p, series_reference.scale(ra, -1)),
        "scale": (p.scale(factor), series_reference.scale(ra, factor)),
        "**": (p ** n, series_reference.power(ra, n)),
    }
    for op, (got, want) in pairs.items():
        assert got.coefficients == want, op
        assert _all_fractions(got.coefficients), op
    value = p.evaluate(x)
    assert value == series_reference.evaluate(ra, F(x)) and type(value) is Fraction


@settings(max_examples=200, deadline=None)
@given(_polynomial_pairs(), st.integers(0, 12))
def test_expand_matches_the_fraction_loop(pair, last):
    f = RationalFunction(*pair[:2])
    got = f.expand(last)
    assert got == series_reference.expand(f.numerator.coefficients, f.denominator.coefficients,
                                          last)
    assert _all_fractions(got)


_exponents = st.one_of(st.integers(-8, 8),
                       st.fractions(min_value=-8, max_value=8, max_denominator=5))


@settings(max_examples=200, deadline=None)
@given(_exponents, _exponents, st.integers(0, 40))
def test_binomial_prefix_matches_the_fraction_loop(m, lam, terms):
    got = binomial_prefix(m, lam, terms).coefficients
    assert got == series_reference.binomial_prefix(m, lam, terms)
    assert _all_fractions(got)


@pytest.mark.parametrize("m,lam", [(F(1, 2), 1), (-5, F(3, 2)), (F(-7, 3), F(2, 5))])
def test_long_binomial_prefix_matches_the_fraction_loop(m, lam):
    # 600 terms carry denominators of hundreds to thousands of bits
    got = binomial_prefix(m, lam, 600).coefficients
    assert got[-1].denominator.bit_length() > 512
    assert got == series_reference.binomial_prefix(m, lam, 600)


def _expand(num, den, n):
    """c_0..c_{n-1} of num/den, den[0] == 1."""
    out = []
    for k in range(n):
        acc = num[k] if k < len(num) else 0
        out.append(acc - sum(den[i] * out[k - i] for i in range(1, min(k, len(den) - 1) + 1)))
    return out


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


def test_binomial_prefix_scaling_tool_runs():
    tool = pathlib.Path(__file__).resolve().parent.parent / "tools" / "binomial_prefix_scaling.py"
    out = subprocess.run([sys.executable, str(tool), "--lengths", "3,40"],
                         capture_output=True, text=True, timeout=120, check=True)
    rows = json.loads(out.stdout)["rows"]
    assert [row["terms"] for row in rows] == [3, 40] * 4
    assert all(row["ms"] >= 0 for row in rows)


def test_construction_scaling_tool_runs():
    tool = pathlib.Path(__file__).resolve().parent.parent / "tools" / "construction_scaling.py"
    out = subprocess.run([sys.executable, str(tool), "--sizes", "2", "--timeout", "60"],
                         capture_output=True, text=True, timeout=300, check=True)
    rows = json.loads(out.stdout)["rows"]
    assert [(row["verb"], row["p"], row["exit"]) for row in rows] == [
        ("powerset", 2, 0), ("mapspace --finite 2", 2, 0), ("mapspace --chib -2", 2, 0),
        ("gizmo --ks 1", 2, 0)]


def test_line_count_tool_runs(tmp_path):
    tool = pathlib.Path(__file__).resolve().parent.parent / "tools" / "line_count.py"
    src = pathlib.Path(exact_series.__file__).parent
    out = subprocess.run([sys.executable, str(tool)], capture_output=True, text=True,
                         timeout=120, check=True)
    report = json.loads(out.stdout)
    assert set(report["modules"]) == {path.name for path in src.glob("*.py")}
    for name, row in report["modules"].items():
        assert row["lines"] == (src / name).read_text().count("\n") >= row["code_lines"] > 0
    assert report["total"]["lines"] == sum(row["lines"] for row in report["modules"].values())
    # a docstring, a comment, a blank line and a code line with a trailing
    # comment: the code lines are the def, the three-line call and the return
    (tmp_path / "m.py").write_text(
        '"""Module\ndocstring."""\n\n# comment\ndef f():\n    """One."""\n'
        '    x = max(1,\n            2,  # two\n            3)\n    return x\n')
    out = subprocess.run([sys.executable, str(tool), "--src", str(tmp_path)],
                         capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(out.stdout)["modules"] == {"m.py": {"lines": 10, "code_lines": 5}}


FIT_NAMES = {"continue_series", "min_recurrence"}


def _names(path):
    """Every identifier a module uses: names, attributes and imported names."""
    nodes = list(ast.walk(ast.parse(path.read_text())))
    return ({n.id for n in nodes if isinstance(n, ast.Name)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            | {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names})


def test_only_exact_series_and_verify_name_the_fit():
    # the fit stays off every construction and CLI path
    src = pathlib.Path(exact_series.__file__).parent
    modules = {path.stem: _names(path) for path in src.glob("*.py")}
    del modules["exact_series"]
    assert FIT_NAMES <= modules.pop("verify")  # the scan sees both names where they are used
    assert {name: used & FIT_NAMES for name, used in modules.items() if used & FIT_NAMES} == {}


RUNNER_STEPS = {"series_window", "Regularized"}


def _calls(path):
    """The name of every function a module calls: f for f(..) and for x.f(..)."""
    calls = [n.func for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Call)]
    return ({f.id for f in calls if isinstance(f, ast.Name)}
            | {f.attr for f in calls if isinstance(f, ast.Attribute)})


def test_only_the_runner_calls_its_steps():
    # series_window and the Regularized record run inside exact_series.regularize;
    # every construction declares an exact_series.Construction instead
    src = pathlib.Path(exact_series.__file__).parent
    modules = {path.stem: _calls(path) for path in src.glob("*.py")}
    assert RUNNER_STEPS <= modules.pop("exact_series")  # the scan sees the calls where they are
    assert {name: used & RUNNER_STEPS for name, used in modules.items() if used & RUNNER_STEPS} == {}
