import random
from fractions import Fraction

import pytest

from eulermeasure.errors import InputError, RegularizationError
from eulermeasure.exact_series import (
    EulerSeries,
    Polynomial,
    RationalFunction,
    Recurrence,
    SeriesPrefix,
    binomial_prefix,
    continue_series,
    eval_at_one,
    min_recurrence,
    poly_gcd,
    series_window,
    to_rational_function,
)

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

    def test_arithmetic_at_one(self):
        f = rf([2], [1, 15]) - rf([1], [1, 3])
        assert eval_at_one(f) == F(2, 16) - F(1, 4) == F(-1, 8)

    def test_pole_at_one(self):
        with pytest.raises(RegularizationError):
            eval_at_one(rf([1], [1, -1]))

    def test_pole_elsewhere(self):
        assert rf([1], [1, -1]).evaluate(F(1, 2)) == 2
        with pytest.raises(RegularizationError):
            rf([1], [1, -1]).evaluate(1)


class TestSeriesPrefix:
    def test_add(self):
        a = SeriesPrefix((1, -1, 1), "rank")
        b = SeriesPrefix((0, 1, 0), "rank")
        assert a.add(b).coefficients == (1, 0, 1)

    def test_scale(self):
        a = SeriesPrefix((2, -6, 18), "rank")
        assert a.scale(F(1, 2)).coefficients == (1, -3, 9)

    def test_cauchy_multiply(self):
        a = SeriesPrefix((1, 1), "rank")
        assert a.cauchy_multiply(a).coefficients == (1, 2)
        b = SeriesPrefix((1, 1, 0), "rank")
        assert b.cauchy_multiply(b).coefficients == (1, 2, 1)

    def test_truncate(self):
        a = SeriesPrefix((1, 2, 3, 4), "rank")
        assert a.truncate(2).coefficients == (1, 2)

    def test_grading_mismatch(self):
        with pytest.raises(InputError):
            SeriesPrefix((1,), "rank").add(SeriesPrefix((1,), "breakpoints"))

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
        assert prefix.scale(2).coefficients == (2, -6, 18, -54, 162)
        assert closed == rf([1], [1, 3])

    def test_positive_power_is_polynomial(self):
        prefix, closed = binomial_prefix(2, 1, 4)
        assert prefix.coefficients == (1, 2, 1, 0, 0)
        assert closed == poly(1, 2, 1)

    def test_coefficient_ratio_property(self):
        rng = random.Random(5)
        for _ in range(25):
            m = rng.randint(-6, 6)
            lam = F(rng.randint(-4, 4), rng.randint(1, 3))
            prefix, _ = binomial_prefix(m, lam, 10)
            c = prefix.coefficients
            for k in range(10):
                assert c[k + 1] * (k + 1) == c[k] * lam * (m - k)


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
            (24, 30, None, (30, 14)),
            (2, 5, 8, (5, 2)),
            (2, None, 5, (6, 2)),
            (24, None, 2, (94, 2)),
        ],
    )
    def test_window(self, bound, terms, max_order, expected):
        assert series_window(bound, terms, max_order) == expected

    def test_default_window_meets_fit_contract(self):
        for bound in range(30):
            terms, max_order = series_window(bound)
            assert (terms + 2) // 2 >= 2 * max_order and terms + 1 >= 2 * max_order + 2

    @pytest.mark.parametrize(
        "terms,max_order,knob,minimum",
        [(0, None, "terms", "at least 1"), (-3, 2, "terms", "at least 1"), (None, -1, "max_order", "at least 0")],
    )
    def test_bad_knob_named_with_minimum(self, terms, max_order, knob, minimum):
        with pytest.raises(InputError) as err:
            series_window(2, terms, max_order)
        assert knob in str(err.value) and minimum in str(err.value)


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
        assert eval_at_one(rf([2], [1, 15]) - rf([1], [1, 3])) == F(-1, 8)


class TestRoundTrip:
    def test_random_rational_functions(self):
        rng = random.Random(17)
        for _ in range(40):
            num = poly(*(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))))
            den = Polynomial(
                (F(1),) + tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3)))
            )
            f = RationalFunction(num, den)
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
        assert series.fit_terms == 6
        assert series.regularized_value() == F(1, 2)

    def test_continue_series_failure(self):
        with pytest.raises(RegularizationError):
            continue_series(SeriesPrefix((1, 2, 4, 8, 16, 31, 57, 99, 163), "rank"), 2)

    def test_series_without_closed_form(self):
        with pytest.raises(RegularizationError):
            EulerSeries(SeriesPrefix((1, 2), "rank")).regularized_value()
