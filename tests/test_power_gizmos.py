import importlib
import itertools
import json
import pathlib
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from eulermeasure import power_gizmos
from eulermeasure.errors import (
    InputError,
    InternalCheckError,
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
ROOT = pathlib.Path(__file__).resolve().parent.parent


def _unbuilt(*args):
    raise AssertionError("a subset was built")


def rf(num, den):
    return RationalFunction(Polynomial(tuple(F(c) for c in num)), Polynomial(tuple(F(c) for c in den)))


def enumerated_census(spec, ground_size):
    """gizmo_support_census as it enumerated before its bitmasks: frozenset
    subsets sorted by indicator string, each level's supports the union
    of the chosen supports."""
    ground = tuple(range(1, ground_size + 1))
    subsets = [frozenset(c) for n in range(ground_size + 1)
               for c in itertools.combinations(ground, n)]
    subsets.sort(key=lambda s: tuple(0 if g in s else 1 for g in ground))
    supports = subsets
    for k_i in spec.ks:
        supports = [frozenset().union(*(supports[i] for i in combo))
                    for combo in itertools.combinations(range(len(supports)), k_i)]
    return dict(Counter(supports))


@pytest.mark.parametrize("ks", [(1,), (2,), (3,), (2, 2)])
@pytest.mark.parametrize("ground_size", range(5))
def test_bitmask_census_matches_the_enumeration(ks, ground_size):
    census = gizmo_support_census(GizmoSpec(ks), ground_size)
    expected = enumerated_census(GizmoSpec(ks), ground_size)
    assert census == expected and list(census) == list(expected)
    assert all(type(support) is frozenset for support in census)


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

    def test_brute_cap(self, monkeypatch):
        # 256 subsets, then 32,640 pairs, then 532,684,880 pairs of pairs:
        # refused before a subset is built, and a deep spec before its
        # levels grow
        monkeypatch.setattr(power_gizmos, "itertools", SimpleNamespace(combinations=_unbuilt))
        for ks in ((2, 2), (2,) * 40):
            with pytest.raises(ResourceLimitError) as err:
                gizmo_brute_force(GizmoSpec(ks), 8)
            assert "gizmo_support_count" in str(err.value)

    def test_bad_spec(self):
        with pytest.raises(InputError, match="--ks sizes must be at least 1, got 0"):
            GizmoSpec((2, 0))

    @pytest.mark.parametrize("size", [2.5, "2.5", "2", None, F(5, 2), float("inf"),
                                      float("nan"), True], ids=repr)
    def test_non_integral_size_refused(self, size):
        with pytest.raises(InputError, match="--ks sizes must be integers"):
            GizmoSpec((2, size))

    def test_non_integral_size_never_truncated(self):
        # int(2.5) would be 2 and give binom(1/2, 2) = -1/8
        with pytest.raises(InputError, match="--ks"):
            gizmo_measure(parse("(0,1)"), GizmoSpec((2.5,)))

    @pytest.mark.parametrize("size", [2.0, F(4, 2), 2], ids=repr)
    def test_integral_size_normalized(self, size):
        spec = GizmoSpec((size,))
        assert spec == GizmoSpec((2,)) and type(spec.ks[0]) is int
        assert gizmo_measure(parse("(0,1)"), spec).value == F(-1, 8)


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
        k_bad = GizmoSpec(ks).fit_dimension + power_gizmos.HELD_OUT  # the last one
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

        monkeypatch.setattr(power_gizmos, "_polynomial_weights", refuse)
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
        assert res.value == F(-1, 8) and len(res.series.prefix) == 25
        # c_0 = c_1 = 0 alone fit order 0, but the closed form does not need
        # them to decide it: terms only sets the prefix shown
        res = gizmo_measure(parse("(0,1)"), GizmoSpec((2, 2)), terms=1)
        assert res.value == F(9, 128)
        assert res.series.prefix.coefficients == (0, 0) and res.counts == (0, 0)


def _gizmo_cases(monkeypatch):
    """The 44 (chi, ks) gizmo queries of the benchmark's regularize workload."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    cases = importlib.import_module("workloads").regularize_gizmo_cases()
    assert len(cases) == 44
    return cases


class TestPolynomialWeights:
    def test_record_fit_is_the_oracle_fit(self, monkeypatch):
        for chi, ks in _gizmo_cases(monkeypatch):
            spec = GizmoSpec(ks)
            record = gizmo_measure(set_with_chi(chi), spec)
            assert record.fit == gizmo_fit(spec)
            expected = iterated_binomial(F(2) ** chi, ks)
            assert record.value == expected and set(record.routes.values()) == {expected}
            assert record.counts == support_count_table(spec, len(record.counts) - 1)
            assert record.series.prefix.coefficients == tuple(
                integer_binomial(chi, k) * n for k, n in enumerate(record.counts))

    def test_no_fit_on_the_default_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("gizmo_measure ran the fit")

        cases = _gizmo_cases(monkeypatch)
        expected = [gizmo_measure(set_with_chi(chi), GizmoSpec(ks)) for chi, ks in cases]
        monkeypatch.setattr(power_gizmos, "gizmo_fit", refuse)
        monkeypatch.setattr(power_gizmos, "_exponential_weights", refuse)
        for (chi, ks), record in zip(cases, expected):
            assert gizmo_measure(set_with_chi(chi), GizmoSpec(ks)) == record

    @pytest.mark.parametrize("chi", [-2, -1, 0, 2])
    @pytest.mark.parametrize("ks", [(2,), (3,), (2, 2)], ids=str)
    def test_wrong_coefficient_fails_the_certificate(self, chi, ks, monkeypatch):
        # the counts are Mobius-inverted totals, apart from the polynomial, so
        # one wrong weight in the closed form is caught by the certificate
        weights = power_gizmos._polynomial_weights

        def wrong(ks):
            fit = weights(ks)
            return power_gizmos.ExponentialFit(
                fit.integer_weights[:-1] + (fit.integer_weights[-1] + 1,), fit.scale)

        monkeypatch.setattr(power_gizmos, "_polynomial_weights", wrong)
        with pytest.raises(InternalCheckError, match="counts disagree with the closed form"):
            gizmo_measure(set_with_chi(chi), GizmoSpec(ks))


@pytest.mark.parametrize("ks", [ks for ks in FIT_KS if GizmoSpec(ks).fit_dimension <= 12], ids=str)
def test_integer_route_is_the_fit_polynomial(ks):
    fit = power_gizmos._polynomial_weights(GizmoSpec(ks).ks)
    polynomial = gizmo_fit(GizmoSpec(ks)).polynomial
    for chi in range(-8, 9):
        expected = polynomial.evaluate(F(2) ** chi)
        assert power_gizmos._exponential_value(fit, chi) == expected


def test_gizmo_fit_scaling_tool_runs():
    tool = ROOT / "tools" / "gizmo_fit_scaling.py"
    out = subprocess.run([sys.executable, str(tool), "--dims", "2,4", "--repeats", "1"],
                         capture_output=True, text=True, timeout=120, check=True)
    blob = json.loads(out.stdout)
    rows = blob["rows"]
    assert [row["J"] for row in rows] == [2, 4]
    for row in rows:
        assert row["fit_ms"] > 0 and row["polynomial_ms"] > 0
        assert [m["chi"] for m in row["measure"]] == [-1, 2]
        assert all(m["ms"] > 0 for m in row["measure"])
    assert [(row["ks"], row["J"]) for row in blob["polynomial_only"]] == [([6, 9, 2], 108)]
    assert blob["polynomial_only"][0]["polynomial_ms"] > 0
