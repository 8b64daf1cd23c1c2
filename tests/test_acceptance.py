"""Acceptance suite: every reported headline value, exactly, zero tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import random
from fractions import Fraction

from eulermeasure.choose_construction import choose_cells
from eulermeasure.exact_series import (
    Polynomial,
    RationalFunction,
    SeriesPrefix,
    continue_series,
    min_recurrence,
    to_rational_function,
)
from eulermeasure.fibonacci_subsets import extended_fibonacci, fibonacci_measure
from eulermeasure.map_spaces import (
    affine_pair_space,
    finite_map_count,
    hedral_map_measure,
    map_pair_count,
    map_pair_measure,
    schanuel_measure,
)
from eulermeasure.partition_combinatorics import (
    falling_factorial,
    gen_binomial,
    iterated_binomial,
    mobius_bottom,
    partitions_of,
)
from eulermeasure.power_gizmos import (
    GizmoSpec,
    gizmo_brute_force,
    gizmo_measure,
    gizmo_support_count,
)
from eulermeasure.setparse import parse_set_expression as parse
from eulermeasure.verify import random_polyhedral_set, set_with_chi

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
        fitted = continue_series(ps.series.prefix, 8)
        assert fitted.closed_form == rf([1], [1, 1]) == ps.series.closed_form
        assert ps.value == F(1, 2)
        assert fitted.regularized_value() == F(1, 2)

    _report(2, "power set of (0,1): 1,-1,1,... continues to 1/(1+t), value 1/2", check)


def test_criterion_3_two_subsets_of_powerset():
    def check():
        res = gizmo_measure(parse("(0,1)"), GizmoSpec((2,)))
        assert res.counts.counts[1:4] == (1, 4, 13)
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
            assert finite_map_count(2, k, mode="brute") == 2 * 3 ** k
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
        family = {
            -3: "(0,1) u (2,3) u (4,5)",
            -2: "(0,1) u (2,3)",
            -1: "(0,1)",
            0: "{0} u (1,2)",
            1: "[0,1]",
            2: "[0,1] u [2,3]",
            3: "{0,1,2}",
            4: "{0,1,2,3}",
        }
        for chi, expr in family.items():
            p = parse(expr)
            assert p.euler_measure() == chi
            assert fibonacci_measure(p).value == extended_fibonacci(chi + 1)
        assert fibonacci_measure(parse("{0}")).value == 1
        assert fibonacci_measure(parse("(0,1)")).value == 0
        assert fibonacci_measure(parse("{0,1}")).value == 2

    _report(8, "parity-subset measure equals F(chi+1) for chi in -3..4", check)


def test_criterion_9_property_suites():
    def check():
        # oracle equivalence on finite ground sets
        for ks in ((1,), (2,), (3,), (2, 2)):
            spec = GizmoSpec(ks)
            for k in range(5):
                assert gizmo_brute_force(spec, k) == gizmo_support_count(spec, k)

        # valuation law on random set pairs
        rng = random.Random(99)
        for _ in range(60):
            a, b = random_polyhedral_set(rng), random_polyhedral_set(rng)
            assert (
                a.union(b).euler_measure()
                == a.euler_measure() + b.euler_measure() - a.intersect(b).euler_measure()
            )

        # partition-lattice Mobius identity, k <= 6
        for k in range(7):
            pis = partitions_of(k)
            for _ in range(20):
                x = F(rng.randint(-24, 24), rng.randint(1, 6))
                assert sum(mobius_bottom(pi) * x ** pi.block_count for pi in pis) == falling_factorial(x, k)

        # Boolean-lattice inversion identity, k <= 8
        import math

        x = Polynomial.variable()
        core = x * x - Polynomial.constant(1)
        for k in range(9):
            lhs = Polynomial(())
            for j in range(k + 1):
                lhs = lhs + (x ** (2 * j + 1)).scale((-1) ** (k - j) * math.comb(k, j))
            assert lhs == x * core ** k

        # recurrence round trip on random rational functions
        for _ in range(30):
            num = Polynomial(tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))))
            den = Polynomial((F(1),) + tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))))
            f = RationalFunction(num, den)
            bound = max(f.denominator.degree, f.numerator.degree + 1)
            n = max(2 * (f.numerator.degree + f.denominator.degree) + 2, 4 * bound + 2)
            prefix = SeriesPrefix(f.expand(n - 1), "rank")
            rec = min_recurrence(prefix, bound)
            assert rec is not None
            assert to_rational_function(prefix, rec) == f

    _report(9, "property suites: oracles, valuation, Mobius, inversion, round trip", check)
