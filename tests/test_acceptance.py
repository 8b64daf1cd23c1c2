"""Acceptance suite: every reported headline value, exactly, zero tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

from fractions import Fraction

from eulermeasure.choose_construction import choose_cells
from eulermeasure.exact_series import Polynomial, RationalFunction, continue_series
from eulermeasure.fibonacci_subsets import extended_fibonacci, fibonacci_measure
from eulermeasure.map_spaces import (
    affine_pair_space,
    brute_map_count,
    hedral_map_measure,
    map_pair_count,
    map_pair_measure,
    schanuel_measure,
)
from eulermeasure.partition_combinatorics import gen_binomial, iterated_binomial
from eulermeasure.power_gizmos import GizmoSpec, gizmo_measure
from eulermeasure.setparse import parse_set_expression as parse
from eulermeasure.verify import CHECKS, FIB_FAMILY, set_with_chi

F = Fraction


def _report(number, description, check):
    try:
        check()
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def rf(num, den):
    return RationalFunction(
        Polynomial(tuple(F(c) for c in num)), Polynomial(tuple(F(c) for c in den))
    )


def test_criterion_1_choose_cells():
    def check():
        a = parse("(0,1) u (2,3)")
        sketch = choose_cells(a, 3)
        assert sketch.dimensions == (3, 3, 3, 3)
        assert sketch.measure == -4
        assert gen_binomial(-2, 3) == -4
        assert sketch.measure == gen_binomial(a.euler_measure(), 3)

    _report(1, "chi((0,1)u(2,3) choose 3) = -4 by cell enumeration and binomial", check)


def test_criterion_2_powerset_of_interval():
    def check():
        from eulermeasure.power_gizmos import powerset_series

        ps = powerset_series(parse("(0,1)"), 24)
        assert ps.series.prefix.coefficients[:6] == (1, -1, 1, -1, 1, -1)
        # the prefix alone must continue to 1/(1+t)
        fitted = continue_series(ps.series.prefix)
        assert fitted.closed_form == rf([1], [1, 1]) == ps.series.closed_form
        assert ps.value == F(1, 2)
        assert fitted.regularized_value() == F(1, 2)

    _report(2, "power set of (0,1): 1,-1,1,... continues to 1/(1+t), value 1/2", check)


def test_criterion_3_two_subsets_of_powerset():
    def check():
        res = gizmo_measure(parse("(0,1)"), GizmoSpec((2,)))
        assert res.counts[1:4] == (1, 4, 13)
        assert res.series.closed_form == rf([0, -1], [1, 4, 3])  # -t/((1+t)(1+3t))
        assert res.value == F(-1, 8)

    _report(3, "choose-2 of 2^(0,1): n=1,4,13, -t/((1+t)(1+3t)), value -1/8", check)


def test_criterion_4_theorem_one_cross_route():
    def check():
        for chi in range(-3, 4):
            a = set_with_chi(chi)
            for ks in ((2,), (3,), (2, 2), (2, 3)):
                res = gizmo_measure(a, GizmoSpec(ks))
                expected = iterated_binomial(F(2) ** chi, ks)
                assert res.route_exponential == expected, (chi, ks)
                assert res.route_series == expected, (chi, ks)
        nine = gizmo_measure(parse("(0,1)"), GizmoSpec((2, 2)))
        assert nine.value == F(9, 128)

    _report(
        4,
        "both routes equal C(2^chi; ks) for chi in -3..3, ks in {[2],[3],[2,2],[2,3]}",
        check,
    )


def test_criterion_5_hedral_maps():
    def check():
        for k in range(4):
            assert brute_map_count(2, k) == 2 * 3 ** k
        res = hedral_map_measure(parse("(0,1)"), 2)
        assert res.series.closed_form == rf([2], [1, 3])
        assert res.value == F(1, 2)

    _report(5, "maps (0,1)->{0,1}: brute 2*3^k, series 2/(1+3t), value 1/2", check)


def test_criterion_6_distinct_map_pairs():
    def check():
        for k in range(4):
            assert map_pair_count(2, k) == 2 * 15 ** k - 3 ** k
        res = map_pair_measure(2)
        assert res.value == F(-1, 8)

    _report(6, "distinct map pairs: brute 2*15^k - 3^k, value -1/8", check)


def test_criterion_7_theorem_two():
    def check():
        assert schanuel_measure(0).value == 0
        for chi_b in (1, -1, 2, -2, 3):
            assert schanuel_measure(chi_b).value == F(1, chi_b)
        b = parse("[0,1] u [2,3]")
        assert affine_pair_space(b).measure == 2
        assert schanuel_measure(b).value == F(1, 2)

    _report(7, "map space from (0,1): 0 when chi(B)=0, else 1/chi(B); concrete B ok", check)


def test_criterion_8_fibonacci():
    def check():
        for chi, expr in FIB_FAMILY.items():
            p = parse(expr)
            assert p.euler_measure() == chi
            assert fibonacci_measure(p).value == extended_fibonacci(chi + 1)
        assert fibonacci_measure(parse("{0}")).value == 1
        assert fibonacci_measure(parse("(0,1)")).value == 0
        assert fibonacci_measure(parse("{0,1}")).value == 2

    _report(8, "parity-subset measure equals F(chi+1) for chi in -3..4", check)


def test_criterion_9_property_suites():
    def check():
        failures = [
            (scope, name, detail) for scope, name, fn in CHECKS if (detail := fn()) is not None
        ]
        assert failures == []

    _report(9, "property suites: oracles, valuation, Mobius, inversion, round trip", check)
