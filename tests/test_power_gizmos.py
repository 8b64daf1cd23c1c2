from fractions import Fraction

import pytest

from eulermeasure import power_gizmos
from eulermeasure.errors import (
    InputError,
    InternalCheckError,
    RegularizationError,
    ResourceLimitError,
)
from eulermeasure.exact_series import Polynomial, RationalFunction, solve_linear_system
from eulermeasure.interval_sets import points
from eulermeasure.partition_combinatorics import gen_binomial, integer_binomial, iterated_binomial
from eulermeasure.power_gizmos import (
    GizmoSpec,
    gizmo_brute_force,
    gizmo_fit,
    gizmo_measure,
    gizmo_support_census,
    gizmo_support_count,
    iterated_binomial_polynomial,
    powerset_series,
    support_count_table,
)
from eulermeasure.setparse import parse_set_expression as parse
from eulermeasure.verify import set_with_chi

F = Fraction


def rf(num, den):
    return RationalFunction(Polynomial(tuple(F(c) for c in num)), Polynomial(tuple(F(c) for c in den)))


class TestSupportCounts:
    def test_single_selection_counts(self):
        spec = GizmoSpec((2,))
        assert [gizmo_support_count(spec, k) for k in range(4)] == [0, 1, 4, 13]

    def test_geometric_sums(self):
        # n_k for one two-element selection is 3^(k-1) + ... + 3 + 1
        spec = GizmoSpec((2,))
        for k in range(1, 8):
            assert gizmo_support_count(spec, k) == sum(3 ** i for i in range(k))

    def test_nested_selection_counts(self):
        spec = GizmoSpec((2, 2))
        assert [gizmo_support_count(spec, k) for k in range(5)] == [0, 0, 15, 333, 5718]

    def test_table(self):
        table = support_count_table(GizmoSpec((2,)), 3)
        assert table == (0, 1, 4, 13)
        assert table[0] in (0, 1)

    def test_single_singleton(self):
        assert gizmo_brute_force(GizmoSpec((1,)), 1) == 1

    def test_pair_over_two_points(self):
        assert gizmo_brute_force(GizmoSpec((2,)), 2) == 4

    def test_census_total_is_gizmo_cardinality(self):
        for m in range(4):
            for ks in ((2,), (2, 2), (3,)):
                census = gizmo_support_census(GizmoSpec(ks), m)
                assert sum(census.values()) == iterated_binomial(2 ** m, ks)

    def test_brute_cap(self):
        with pytest.raises(ResourceLimitError) as err:
            gizmo_brute_force(GizmoSpec((2, 2)), 8, cap=1000)
        assert "gizmo_support_count" in str(err.value)

    def test_bad_spec(self):
        with pytest.raises(InputError, match="--ks sizes must be at least 1, got 0"):
            GizmoSpec((2, 0))


class TestGizmoFit:
    def test_single_pair_fit(self):
        fit = gizmo_fit(GizmoSpec((2,)))
        assert fit.bases == (1, 3)
        assert fit.weights == (F(-1, 2), F(1, 2))
        assert fit.polynomial == Polynomial((F(0), F(-1, 2), F(1, 2)))

    def test_fit_polynomial_is_iterated_binomial(self):
        for ks in ((1,), (2,), (3,), (2, 2)):
            fit = gizmo_fit(GizmoSpec(ks))
            assert fit.polynomial == iterated_binomial_polynomial(ks)

    def test_predicts_beyond_fit_window(self):
        fit = gizmo_fit(GizmoSpec((2, 2)))
        for k in range(10):
            predicted = sum(w * F(b) ** k for w, b in zip(fit.weights, fit.bases))
            assert predicted == gizmo_support_count(GizmoSpec((2, 2)), k)

    @pytest.mark.parametrize("ks", [(1,), (2,), (3,), (2, 2), (2, 3), (3, 2, 1)], ids=str)
    def test_iterated_binomial_polynomial_values(self, ks):
        p = iterated_binomial_polynomial(ks)
        assert p.degree == GizmoSpec(ks).fit_dimension
        for x in (F(1, 2), F(-3), F(7, 4), F(0), F(5)):
            assert p.evaluate(x) == iterated_binomial(x, ks)


def _corrupt_counts(monkeypatch, corrupt):
    """Make gizmo_support_count return n_k + corrupt(k)."""
    count = power_gizmos.gizmo_support_count
    monkeypatch.setattr(power_gizmos, "gizmo_support_count",
                        lambda spec, k, totals=None: count(spec, k, totals) + corrupt(k))


@pytest.mark.parametrize("ks", [(2,), (3,), (2, 2)], ids=str)
class TestGizmoFitChecks:
    """A corrupted support count or weight is refused by each fit check."""

    def test_corrupted_held_out_count(self, ks, monkeypatch):
        k_bad = GizmoSpec(ks).fit_dimension + 3
        _corrupt_counts(monkeypatch, lambda k: k == k_bad)
        with pytest.raises(InternalCheckError, match=f"held-out support count n_{k_bad}"):
            gizmo_fit(GizmoSpec(ks))

    def test_corrupted_fitted_count(self, ks, monkeypatch):
        _corrupt_counts(monkeypatch, lambda k: 2 * (k == 1))
        with pytest.raises(InternalCheckError, match="held-out"):
            gizmo_fit(GizmoSpec(ks))

    def test_corrupted_weight(self, ks, monkeypatch):
        weights = power_gizmos._exponential_weights
        monkeypatch.setattr(power_gizmos, "_exponential_weights",
                            lambda bases, counts: [weights(bases, counts)[0] + F(1, 3)]
                            + weights(bases, counts)[1:])
        with pytest.raises(InternalCheckError, match="held-out"):
            gizmo_fit(GizmoSpec(ks))

    def test_consistent_but_wrong_counts(self, ks, monkeypatch):
        # n_k + 1 for k >= 1 adds the exponential 1^k of base 2^1 - 1: the fit
        # still predicts its held-out counts, and only the polynomial check sees it
        _corrupt_counts(monkeypatch, lambda k: k >= 1)
        with pytest.raises(InternalCheckError, match="iterated binomial polynomial"):
            gizmo_fit(GizmoSpec(ks))


def _ordered_factorizations(n):
    """Every ks with factors >= 2 and product n."""
    if n == 1:
        yield ()
    for f in range(2, n + 1):
        if n % f == 0:
            yield from ((f,) + rest for rest in _ordered_factorizations(n // f))


# Every selection-size list with J <= 27 and no 1s, plus two with 1s.
FIT_KS = [(1,), (2, 1)] + [ks for j in range(2, 28) for ks in _ordered_factorizations(j)]


@pytest.mark.parametrize("ks", FIT_KS, ids=str)
def test_exponential_weights_match_gauss_oracle(ks):
    spec = GizmoSpec(ks)
    fit = gizmo_fit(spec)
    j_dim, totals = spec.fit_dimension, []
    rows = [[F(b) ** k for b in fit.bases] for k in range(1, j_dim + 1)]
    rhs = [F(gizmo_support_count(spec, k, totals)) for k in range(1, j_dim + 1)]
    assert fit.weights == tuple(solve_linear_system(rows, rhs))


def test_integer_binomial_is_gen_binomial():
    for n in range(-7, 8):
        for k in range(12):
            assert integer_binomial(n, k) == gen_binomial(n, k)
    with pytest.raises(InputError, match="at least 0"):
        integer_binomial(3, -1)


class TestPowerSet:
    def test_open_interval(self):
        ps = powerset_series(parse("(0,1)"), 8)
        assert ps.series.prefix.coefficients == (1, -1, 1, -1, 1, -1, 1, -1, 1)
        assert ps.series.closed_form == rf([1], [1, 1])
        assert ps.value == F(1, 2)

    def test_two_points(self):
        ps = powerset_series(points([0, 1]), 6)
        assert ps.series.closed_form == rf([1, 2, 1], [1])
        assert ps.value == 4

    def test_chi_minus_two(self):
        ps = powerset_series(parse("(0,1) u (2,3)"), 6)
        assert ps.series.closed_form == rf([1], [1, 2, 1])
        assert ps.value == F(1, 4)


class TestGizmoMeasure:
    def test_interval_choose_two(self):
        res = gizmo_measure(parse("(0,1)"), GizmoSpec((2,)))
        assert res.value == F(-1, 8)
        assert res.route_exponential == res.route_series == F(-1, 8)
        assert res.series.closed_form == rf([0, -1], [1, 4, 3])
        assert res.counts[1:4] == (1, 4, 13)

    def test_interval_choose_two_twice(self):
        res = gizmo_measure(parse("(0,1)"), GizmoSpec((2, 2)))
        assert res.value == F(9, 128) == iterated_binomial(F(1, 2), [2, 2])

    def test_two_points_choose_two(self):
        res = gizmo_measure(points([0, 1]), GizmoSpec((2,)))
        assert res.value == 6

    def test_size_ceiling_checked_before_counting(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("counted a gizmo above the size ceiling")

        monkeypatch.setattr(power_gizmos, "gizmo_fit", refuse)
        monkeypatch.setattr(power_gizmos, "gizmo_support_count", refuse)
        for expr, ks in (("(0,1)", (61,)), ("(0,1) u (2,3)", (6, 8)), ("{0}", (8, 8))):
            with pytest.raises(ResourceLimitError, match="--ks"):
                gizmo_measure(parse(expr), GizmoSpec(ks))

    def test_size_ceiling_admits_its_boundary(self):
        # max(-chi, 1) * J(J+1)/2 = 1830 = MAX_GIZMO_BITS
        res = gizmo_measure(parse("(0,1)"), GizmoSpec((60,)))
        assert res.value == iterated_binomial(F(1, 2), (60,))

    def test_empty_selection_list_refused(self):
        with pytest.raises(InputError, match="--ks"):
            GizmoSpec(())

    @pytest.mark.parametrize("chi", range(-3, 4))
    @pytest.mark.parametrize("ks", [(2,), (3,), (2, 2), (2, 3)])
    def test_theorem_cross_route(self, chi, ks):
        res = gizmo_measure(set_with_chi(chi), GizmoSpec(ks))
        expected = iterated_binomial(F(2) ** chi, ks)
        assert res.route_exponential == expected
        assert res.route_series == expected
        assert res.value == expected

    def test_explicit_small_budget_still_exact(self):
        res = gizmo_measure(parse("(0,1)"), GizmoSpec((2,)), terms=24)
        assert res.value == F(-1, 8)
        # c_0 = c_1 = 0 fits order 0; two coefficients cannot rule out order 4
        with pytest.raises(RegularizationError, match="raise terms"):
            gizmo_measure(parse("(0,1)"), GizmoSpec((2, 2)), terms=1)
