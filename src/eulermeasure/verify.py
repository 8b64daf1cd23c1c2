"""Desk-scale verification suite behind the CLI ``verify`` subcommand.

Each check exercises one stated invariant of a module, exactly (no
tolerances): randomized checks use a fixed seed, enumerative checks use
the documented desk-scale parameters.  A check returns None on success
or a human-readable counterexample on failure; exceptions are reported
as failures rather than aborting the suite.  Each result carries the
check's wall time in ms.  ``CHECKS`` is the one place an invariant is
written: pytest runs each entry as ``test_invariant``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .choose_construction import cell_counts, choose_cells, ordered_distinct_measure
from .errors import InputError
from .exact_series import (
    Polynomial,
    RationalFunction,
    SeriesPrefix,
    binomial_prefix,
    continue_series,
    eval_at_one,
    min_recurrence,
    to_rational_function,
)
from .fibonacci_subsets import (
    enumerate_placements,
    extended_fibonacci,
    fibonacci_measure,
    parity_polynomial,
    parity_strata_coefficient,
    placement_gap_measures,
)
from .interval_sets import (
    NEG_INF,
    POS_INF,
    OpenInterval,
    Point,
    PolyhedralSet1D,
    ext,
    points,
)
from .limits import check_enumeration
from .map_spaces import (
    brute_map_count,
    finite_map_count,
    finite_pair_count,
    hedral_map_measure,
    map_pair_count,
    schanuel_measure,
)
from .partition_combinatorics import (
    falling_factorial,
    gen_binomial,
    iterated_binomial,
    mobius_bottom,
    partitions_of,
)
from .power_gizmos import (
    GizmoSpec,
    gizmo_brute_force,
    gizmo_fit,
    gizmo_measure,
    gizmo_support_census,
    gizmo_support_count,
    iterated_binomial_polynomial,
    powerset_series,
)
from .setparse import parse_set_expression, to_expression

@dataclass(frozen=True)
class CheckResult:
    scope: str
    name: str
    passed: bool
    detail: str = ""
    ms: float = 0.0


CHECKS: list[tuple[str, str, Callable[[], str | None]]] = []


def _check(scope: str, name: str):
    def wrap(fn):
        CHECKS.append((scope, name, fn))
        return fn

    return wrap


def random_polyhedral_set(rng: random.Random, max_pieces: int = 3) -> PolyhedralSet1D:
    """Random canonical set built from half-integer-grid literals."""
    pieces = []
    for _ in range(rng.randint(0, max_pieces)):
        a = Fraction(rng.randint(-12, 12), 2)
        roll = rng.random()
        if roll < 0.3:
            pieces.append(Point(a))
        else:
            b = a + Fraction(rng.randint(1, 8), 2)
            pieces.append(OpenInterval(ext(a), ext(b)))
            if roll > 0.75:
                pieces.append(Point(a))
            if roll > 0.9:
                pieces.append(Point(b))
    if rng.random() < 0.12:
        pieces.append(OpenInterval(NEG_INF, ext(Fraction(rng.randint(-12, 0), 2))))
    if rng.random() < 0.12:
        pieces.append(OpenInterval(ext(Fraction(rng.randint(0, 12), 2)), POS_INF))
    return PolyhedralSet1D.from_pieces(pieces)


def random_piece_set(rng: random.Random, max_pieces: int) -> PolyhedralSet1D:
    """Random canonical set of at most max_pieces pieces: points, open
    intervals and rays, where neighbouring pieces may share an endpoint."""
    left, right = rng.random() < 0.25, rng.random() < 0.25
    x = Fraction(rng.randint(-6, 0))
    pieces: list = [OpenInterval(NEG_INF, ext(x))] if left else []
    for _ in range(rng.randint(0, max_pieces - left - right)):
        if rng.random() < 0.5:
            after_point = bool(pieces) and isinstance(pieces[-1], Point)
            x += 1 if after_point or rng.random() < 0.5 else 0
            pieces.append(Point(x))
        else:
            x += rng.randint(0, 1)
            pieces.append(OpenInterval(ext(x), ext(x + 1)))
            x += 1
    if right:
        pieces.append(OpenInterval(ext(x + rng.randint(0, 1)), POS_INF))
    return PolyhedralSet1D.from_pieces(pieces)


def _random_finite_set(rng: random.Random, max_points: int = 5) -> PolyhedralSet1D:
    return points(
        Fraction(rng.randint(-12, 12), 2) for _ in range(rng.randint(0, max_points))
    )


# -- interval_sets -----------------------------------------------------


@_check("interval_sets", "valuation_law")
def _valuation_law():
    rng = random.Random(101)
    for trial in range(60):
        a, b = random_polyhedral_set(rng), random_polyhedral_set(rng)
        lhs = a.union(b).euler_measure()
        rhs = a.euler_measure() + b.euler_measure() - a.intersect(b).euler_measure()
        if lhs != rhs:
            return f"trial {trial}: A={a} B={b}: chi(AuB)={lhs} but chi(A)+chi(B)-chi(A&B)={rhs}"
    return None


@_check("interval_sets", "inclusion_exclusion")
def _inclusion_exclusion():
    rng = random.Random(102)
    for m in (3, 4):
        for trial in range(20):
            sets = [random_polyhedral_set(rng) for _ in range(m)]
            union = PolyhedralSet1D.empty()
            for s in sets:
                union = union.union(s)
            rhs = 0
            for size in range(1, m + 1):
                sign = (-1) ** (size - 1)
                for combo in itertools.combinations(sets, size):
                    inter = combo[0]
                    for s in combo[1:]:
                        inter = inter.intersect(s)
                    rhs += sign * inter.euler_measure()
            if union.euler_measure() != rhs:
                return f"m={m} trial {trial}: chi(union)={union.euler_measure()} IE={rhs}"
    return None


@_check("interval_sets", "complement_law")
def _complement_law():
    rng = random.Random(103)
    for trial in range(40):
        a = random_polyhedral_set(rng)
        if a.euler_measure() + a.complement().euler_measure() != -1:
            return f"trial {trial}: A={a}"
    return None


@_check("interval_sets", "canonical_idempotent")
def _canonical_idempotent():
    rng = random.Random(104)
    for trial in range(40):
        a, b = random_polyhedral_set(rng), random_polyhedral_set(rng)
        for combo in (a.union(b), a.intersect(b), a.difference(b), a.complement()):
            again = PolyhedralSet1D.from_pieces(combo.pieces)
            if again != combo:
                return f"trial {trial}: {combo} re-canonicalizes to {again}"
    return None


@_check("interval_sets", "finite_cardinality")
def _finite_cardinality():
    rng = random.Random(105)
    for trial in range(40):
        a = _random_finite_set(rng)
        cls = a.classify()
        if not cls.finite or a.euler_measure() != cls.cardinality:
            return f"trial {trial}: A={a}"
    return None


@_check("interval_sets", "translation_invariance")
def _translation_invariance():
    rng = random.Random(106)
    for trial in range(40):
        a = random_polyhedral_set(rng)
        d = Fraction(rng.randint(-20, 20), 3)
        if a.shift(d).euler_measure() != a.euler_measure():
            return f"trial {trial}: A={a} shift={d}"
    return None


# -- exact_series ------------------------------------------------------


def random_rational_function(rng: random.Random) -> RationalFunction:
    def rand_fraction():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    num = Polynomial(tuple(rand_fraction() for _ in range(rng.randint(1, 4))))
    den = Polynomial(
        (Fraction(1),) + tuple(rand_fraction() for _ in range(rng.randint(1, 3)))
    )
    return RationalFunction(num, den)


@_check("exact_series", "recurrence_round_trip")
def _recurrence_round_trip():
    rng = random.Random(201)
    for trial in range(30):
        rf = random_rational_function(rng)
        order_bound = rf.order
        n = 2 * (rf.numerator.degree + rf.denominator.degree) + 2
        n = max(n, 4 * order_bound + 2)
        prefix = SeriesPrefix(rf.expand(n - 1), "rank")
        rec = min_recurrence(prefix, order_bound)
        if rec is None:
            return f"trial {trial}: no recurrence found for {rf.text()}"
        back = to_rational_function(prefix, rec)
        if back != rf:
            return f"trial {trial}: {rf.text()} came back as {back.text()}"
    return None


@_check("exact_series", "binomial_coefficient_ratio")
def _binomial_ratio():
    rng = random.Random(202)
    for trial in range(30):
        m = rng.randint(-6, 6)
        lam = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        c = binomial_prefix(m, lam, 12).coefficients
        for k in range(len(c) - 1):
            if c[k + 1] * (k + 1) != c[k] * lam * (m - k):
                return f"trial {trial}: m={m} lam={lam} k={k}"
    return None


@_check("exact_series", "binomial_regularized_value")
def _binomial_value():
    rng = random.Random(203)
    for trial in range(30):
        m = rng.randint(-5, -1)
        lam = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if lam == -1:
            continue
        prefix = binomial_prefix(m, lam, 4 * (-m) + 2)
        rec = min_recurrence(prefix, -m)
        if rec is None:
            return f"trial {trial}: m={m} lam={lam}: no recurrence"
        value = eval_at_one(to_rational_function(prefix, rec))
        if value != (1 + lam) ** m:
            return f"trial {trial}: m={m} lam={lam}: {value} != (1+lam)^m"
    return None


@_check("exact_series", "no_unverified_extrapolation")
def _no_false_closed_form():
    # grows like binomial sums, linear order 5; must be rejected at order 2
    circle_regions = [1, 2, 4, 8, 16, 31, 57, 99, 163]
    if min_recurrence(SeriesPrefix(circle_regions, "rank"), 2) is not None:
        return "order-2 recurrence claimed for a sequence that has none"
    return None


# -- partition_combinatorics -------------------------------------------


@_check("partition_combinatorics", "mobius_identity")
def _mobius_identity():
    # sum over pi of mu(0,pi) x^|pi| = x(x-1)..(x-k+1): grouped by block
    # count, the sums must be the falling factorial's coefficients, and
    # the grouped polynomial must also hit it at 20 seeded rationals
    rng = random.Random(301)
    falling = [1]
    for k in range(7):
        by_blocks = [0] * (k + 1)
        for pi in partitions_of(k):
            by_blocks[pi.block_count] += mobius_bottom(pi)
        if by_blocks != falling:
            return f"k={k}: sums by block count {by_blocks} != x(x-1)..(x-k+1) {falling}"
        lhs = Polynomial(tuple(by_blocks))
        for _ in range(20):
            x = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
            if lhs.evaluate(x) != falling_factorial(x, k):
                return f"k={k} x={x}: {lhs.evaluate(x)} != {falling_factorial(x, k)}"
        falling = [0] + falling  # times (x - k)
        for j in range(k + 1):
            falling[j] -= k * falling[j + 1]
    return None


@_check("partition_combinatorics", "integer_binomials")
def _integer_binomials():
    for m in range(0, 9):
        for k in range(0, 9):
            expected = math.comb(m, k) if m >= k else 0
            if gen_binomial(m, k) != expected:
                return f"binom({m},{k}) = {gen_binomial(m, k)} != {expected}"
    return None


@_check("partition_combinatorics", "pascal_rule")
def _pascal_rule():
    rng = random.Random(302)
    for trial in range(30):
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        for k in range(1, 7):
            if gen_binomial(x, k) != gen_binomial(x - 1, k) + gen_binomial(x - 1, k - 1):
                return f"trial {trial}: x={x} k={k}"
    return None


# -- choose_construction -----------------------------------------------


def _choose_test_family() -> list[PolyhedralSet1D]:
    exprs = [
        "{}",
        "{0}",
        "{0,1,2,3}",
        "(0,1)",
        "(0,1) u (2,3)",
        "(0,1) u (2,3) u (4,5) u (6,7)",
        "[0,1]",
        "{-5} u (0,1) u {2,3}",
        "{0,1} u (2,3) u (4,5) u (6,7)",
        "(-inf,0) u {1,2,3}",
    ]
    return [parse_set_expression(e) for e in exprs]


@_check("choose_construction", "binomial_identity")
def _choose_binomial_identity():
    for a in _choose_test_family():
        chi = a.euler_measure()
        for k in range(7):
            sketch = choose_cells(a, k)
            if sketch.measure != gen_binomial(chi, k):
                return f"A={a} k={k}: {sketch.measure} != binom({chi},{k})"
            if cell_counts(a, k) != sketch.dimension_counts():
                return f"A={a} k={k}: cell_counts {cell_counts(a, k)} != the cell listing"
    return None


@_check("choose_construction", "ordered_vs_unordered")
def _choose_ordered():
    for a in _choose_test_family():
        chi = a.euler_measure()
        for k in range(7):
            ordered = ordered_distinct_measure(a, k)
            if ordered != math.factorial(k) * choose_cells(a, k).measure:
                return f"A={a} k={k}: ordered {ordered} != k! * unordered"
            if ordered != falling_factorial(chi, k):
                return f"A={a} k={k}: ordered {ordered} != falling factorial"
    return None


@_check("choose_construction", "finite_subset_counts")
def _choose_finite_counts():
    rng = random.Random(401)
    for trial in range(20):
        a = _random_finite_set(rng)
        n = len(a.pieces)
        for k in range(min(n + 2, 7)):
            if choose_cells(a, k).measure != math.comb(n, k):
                return f"trial {trial}: A={a} k={k}"
    return None


# -- power_gizmos ------------------------------------------------------


@_check("power_gizmos", "oracle_equivalence")
def _gizmo_oracle():
    for ks in ((1,), (2,), (3,), (2, 2)):
        spec = GizmoSpec(ks)
        for k in range(5):
            formula = gizmo_support_count(spec, k)
            brute = gizmo_brute_force(spec, k)
            if formula != brute:
                return f"ks={ks} k={k}: inversion {formula} != brute {brute}"
    return None


@_check("power_gizmos", "support_independence")
def _gizmo_support_independence():
    census = gizmo_support_census(GizmoSpec((2,)), 3)
    counts = {fs: c for fs, c in census.items() if len(fs) == 2}
    if len(counts) != 3 or len(set(counts.values())) != 1:
        return f"2-subset counts differ: {counts}"
    return None


@_check("power_gizmos", "finite_ground_cardinality")
def _gizmo_finite_cardinality():
    for m in range(4):
        ground = points(range(m))
        for ks in ((2,), (2, 2)):
            spec = GizmoSpec(ks)
            census = gizmo_support_census(spec, m)
            direct = sum(census.values())
            expected = iterated_binomial(2 ** m, ks)
            measured = gizmo_measure(ground, spec).value
            if not (direct == expected == measured):
                return f"m={m} ks={ks}: census {direct}, formula {expected}, measure {measured}"
    return None


@_check("power_gizmos", "theorem_cross_route")
def _gizmo_cross_route():
    for chi in range(-3, 4):
        a = set_with_chi(chi)
        for ks in ((2,), (3,), (2, 2), (2, 3)):
            result = gizmo_measure(a, GizmoSpec(ks))
            expected = iterated_binomial(Fraction(2) ** chi, ks)
            if not (result.route_exponential == result.route_series == expected):
                return f"chi={chi} ks={ks}: routes {result.route_exponential}, {result.route_series} vs {expected}"
    return None


@_check("power_gizmos", "fit_is_the_polynomial")
def _gizmo_fit_is_the_polynomial():
    # gizmo reads its weights off the polynomial; the fit on the support
    # counts, their oracle, must find them for every ks with J <= 8
    products = (ks for r in (1, 2, 3) for ks in itertools.product(range(2, 9), repeat=r))
    for ks in [(1,), *(ks for ks in products if math.prod(ks) <= 8)]:
        if gizmo_fit(GizmoSpec(ks)).polynomial != iterated_binomial_polynomial(ks):
            return f"ks={ks}: the fit's weights are not the polynomial's coefficients"
    return None


@_check("power_gizmos", "powerset_refit")
def _powerset_refit():
    # Berlekamp-Massey on the certified prefix alone finds the closed form
    for chi in range(-3, 4):
        series = powerset_series(set_with_chi(chi)).series
        refit = continue_series(series.prefix, series.order_bound)
        if (refit.closed_form, refit.order_bound) != (series.closed_form, series.order_bound):
            return (f"chi={chi}: refit {refit.closed_form.text()} (bound {refit.order_bound}) "
                    f"!= {series.closed_form.text()} (bound {series.order_bound})")
    return None


def set_with_chi(chi: int) -> PolyhedralSet1D:
    """A canonical set of measure chi: -chi open intervals, chi points, or {}."""
    if chi < 0:
        return parse_set_expression(" u ".join(f"({2 * i},{2 * i + 1})" for i in range(-chi)))
    if chi == 0:
        return PolyhedralSet1D.empty()
    return points(range(chi))


# -- map_spaces --------------------------------------------------------


@_check("map_spaces", "formula_equals_brute")
def _map_formula_brute():
    for bsize in range(1, 5):
        for k in range(4):
            formula = finite_map_count(bsize, k)
            brute = brute_map_count(bsize, k)
            if formula != brute:
                return f"bsize={bsize} k={k}: {formula} != {brute}"
    return None


@_check("map_spaces", "boolean_lattice_inversion")
def _boolean_lattice_identity():
    x = Polynomial.variable()
    core = x * x - Polynomial.constant(1)
    for k in range(9):
        lhs = Polynomial(())
        for j in range(k + 1):
            term = (x ** (2 * j + 1)).scale((-1) ** (k - j) * math.comb(k, j))
            lhs = lhs + term
        if lhs != x * core ** k:
            return f"k={k}: inversion identity fails"
    return None


@_check("map_spaces", "functoriality")
def _map_functoriality():
    for p in range(0, 4):
        a = parse_set_expression(
            " u ".join(f"({2 * i},{2 * i + 1})" for i in range(p)) if p else "{}"
        )
        for bsize in range(1, 5):
            value = hedral_map_measure(a, bsize).value
            if value != Fraction(bsize) ** a.euler_measure():
                return f"p={p} bsize={bsize}: {value}"
    return None


@_check("map_spaces", "pair_counts")
def _map_pair_counts():
    for k in range(4):
        got = map_pair_count(2, k)
        if got != 2 * 15 ** k - 3 ** k:
            return f"k={k}: {got} != 2*15^k - 3^k"
    for bsize in range(1, 4):
        for k in range(3):
            got, closed = map_pair_count(bsize, k), finite_pair_count(bsize, k)
            if got != closed:
                return f"bsize={bsize} k={k}: enumeration {got} != closed count {closed}"
    return None


@_check("map_spaces", "finite_codomain_consistency")
def _schanuel_finite_consistency():
    for m in range(1, 4):
        b = points(range(m))
        result = schanuel_measure(b, terms=2)
        for k in range(3):
            if result.counts[k] != brute_map_count(m, k):
                return f"|B|={m} k={k}: {result.counts[k]}"
    return None


@_check("map_spaces", "multi_component_split")
def _map_split_independence():
    # two-interval domain: counts must not depend on how breakpoints split
    for bsize in range(1, 4):
        for k in range(3):
            expected = bsize ** 2 * (bsize ** 2 - 1) ** k
            for k1 in range(k + 1):
                product = brute_map_count(bsize, k1) * brute_map_count(bsize, k - k1)
                if product != expected:
                    return f"bsize={bsize} split ({k1},{k - k1}): {product} != {expected}"
    return None


# -- fibonacci_subsets -------------------------------------------------


FIB_FAMILY = {
    -3: "(0,1) u (2,3) u (4,5)",
    -2: "(0,1) u (2,3)",
    -1: "(0,1)",
    0: "{0} u (1,2)",
    1: "[0,1]",
    2: "[0,1] u [2,3]",
    3: "{0,1,2}",
    4: "{0,1,2,3}",
}


@_check("fibonacci_subsets", "closed_form_family")
def _fibonacci_family():
    for chi, expr in FIB_FAMILY.items():
        p = parse_set_expression(expr)
        result = fibonacci_measure(p)
        if result.value != extended_fibonacci(chi + 1):
            return f"P={expr}: {result.value} != F({chi + 1})"
    return None


@_check("fibonacci_subsets", "cassini_identity")
def _cassini():
    for n in range(-8, 9):
        lhs = extended_fibonacci(n + 1) * extended_fibonacci(n - 1) - extended_fibonacci(n) ** 2
        if lhs != (-1) ** n:
            return f"n={n}: {lhs}"
    return None


def valid_subsets_by_all_pairs(p: PolyhedralSet1D) -> dict[int, int]:
    """Exhaustive oracle: check every pair from S u {-inf, +inf} with set ops.

    P is finite, of n points.  A subset of r points is checked on
    binom(r + 2, 2) pairs, each a restriction of the n points; those
    entries are checked against the enumeration ceiling first.
    """
    pts = [piece.at for piece in p.pieces]
    n = len(pts)
    check_enumeration(
        sum(math.comb(n, r) * math.comb(r + 2, 2) for r in range(n + 1)) * n,
        f"the subsets of {n} points (parity_polynomial counts the valid ones)",
    )
    by_size: dict[int, int] = {}
    for r in range(len(pts) + 1):
        for chosen in itertools.combinations(pts, r):
            rest = p.difference(points(chosen))
            bounds = [NEG_INF] + [ext(q) for q in sorted(chosen)] + [POS_INF]
            ok = all(
                rest.restrict_open(bounds[i], bounds[j]).euler_measure() % 2 == 0
                for i in range(len(bounds))
                for j in range(i + 1, len(bounds))
            )
            if ok:
                by_size[r] = by_size.get(r, 0) + 1
    return by_size


@_check("fibonacci_subsets", "finite_exhaustive_oracle")
def _fibonacci_finite_oracle():
    rng = random.Random(601)
    sets = [_random_finite_set(rng, 6) for _ in range(8)] + [points(range(6))]
    for p in sets:
        oracle = valid_subsets_by_all_pairs(p)
        for k in range(len(p.pieces) + 1):
            if parity_strata_coefficient(p, k) != oracle.get(k, 0):
                return f"P={p} k={k}: {parity_strata_coefficient(p, k)} != {oracle.get(k, 0)}"
        if fibonacci_measure(p).value != sum(oracle.values()):
            return f"P={p}: measure != exhaustive count"
    return None


@_check("fibonacci_subsets", "transfer_matrix_oracle")
def _fibonacci_transfer_matrix():
    # the automaton against placement enumeration on points, intervals and rays
    rng = random.Random(603)
    for _ in range(6):
        p = random_piece_set(rng, 6)
        poly = parity_polynomial(p)
        for k in range(len(p.pieces) + 2):
            got, want = (poly[k] if k < len(poly) else 0), parity_strata_coefficient(p, k)
            if got != want:
                return f"P={p} k={k}: transfer matrix {got} != enumeration {want}"
    return None


@_check("fibonacci_subsets", "consecutive_gap_lemma")
def _fibonacci_gap_lemma():
    # consecutive-pair evenness must coincide with all-pair evenness
    rng = random.Random(602)
    for trial in range(10):
        p = _random_finite_set(rng, 6)
        oracle = valid_subsets_by_all_pairs(p)
        for k in range(len(p.pieces) + 1):
            consecutive = sum(
                1
                for placement in enumerate_placements(p, k)
                if all(g % 2 == 0 for g in placement_gap_measures(p, placement))
            )
            if consecutive != oracle.get(k, 0):
                return f"trial {trial}: P={p} k={k}"
    return None


@_check("fibonacci_subsets", "depends_only_on_chi")
def _fibonacci_chi_only():
    pairs = {
        -1: ["(0,1)", "(0,1) u (2,3) u {5}", "(-inf,0)"],
        0: ["{0} u (1,2)", "{}", "[0,1] u (2,3)"],
        1: ["[0,1]", "{7}", "{0,1} u (2,3)"],
        2: ["{0,1}", "[0,1] u [2,3]", "{0,1,2} u (3,4)"],
    }
    for chi, exprs in pairs.items():
        values = set()
        for expr in exprs:
            p = parse_set_expression(expr)
            if p.euler_measure() != chi:
                return f"family bug: {expr} has chi {p.euler_measure()}"
            values.add(fibonacci_measure(p).value)
        if len(values) != 1:
            return f"chi={chi}: values differ: {values}"
    return None


# -- cli ----------------------------------------------------------------


@_check("cli", "parser_round_trip")
def _parser_round_trip():
    rng = random.Random(701)
    for trial in range(40):
        a = random_polyhedral_set(rng)
        if parse_set_expression(to_expression(a)) != a:
            return f"trial {trial}: {a}"
    return None


@_check("cli", "json_rationals_round_trip")
def _json_round_trip():
    from .cli import Command, run

    report = run(Command("gizmo", {"set": "(0,1)", "ks": [2]}))
    blob = json.loads(report.to_json())
    value = Fraction(blob["results"]["value"]["value"])
    if value != Fraction(-1, 8):
        return f"value came back as {value}"
    coeffs = [Fraction(c) for c in blob["results"]["series"]["coefficients"][:4]]
    if coeffs != [Fraction(0), Fraction(-1), Fraction(4), Fraction(-13)]:
        return f"series came back as {coeffs}"
    return None


@_check("cli", "paper_values_one_invocation")
def _cli_single_invocations():
    from .cli import Command, run

    cases = [
        (Command("measure", {"set": "(0,1) u (2,3)"}), "euler_measure", "-2"),
        (Command("choose", {"set": "(0,1) u (2,3)", "k": 3}), "measure", "-4"),
        (Command("powerset", {"set": "(0,1)"}), "value", "1/2"),
        (Command("gizmo", {"set": "(0,1)", "ks": [2]}), "value", "-1/8"),
        (Command("mapspace", {"set": "(0,1)", "finite": 2}), "value", "1/2"),
        (
            Command("mapspace", {"set": "(0,1)", "finite": 2, "pairs": True}),
            "value",
            "-1/8",
        ),
        (Command("mapspace", {"set": "(0,1)", "chib": 2}), "value", "1/2"),
        (Command("fib", {"set": "{0,1}"}), "value", "2"),
    ]
    for command, key, expected in cases:
        report = run(command)
        got = report.results[key]["value"]
        if got != expected:
            return f"{command.verb}: {key} = {got}, expected {expected}"
    return None


# Scopes in the order their first check was registered.
SCOPES = tuple(dict.fromkeys(scope for scope, _, _ in CHECKS))


def run_verify(scope: str = "all") -> list[CheckResult]:
    """Run every registered invariant check in the given scope, timing each."""
    if scope != "all" and scope not in SCOPES:
        raise InputError(f"unknown verify scope {scope!r}; choose from {', '.join(SCOPES)}")
    results = []
    for check_scope, name, fn in CHECKS:
        if scope not in ("all", check_scope):
            continue
        start = time.perf_counter()
        try:
            detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        else:
            passed, detail = detail is None, detail or ""
        ms = round((time.perf_counter() - start) * 1000, 3)
        results.append(CheckResult(check_scope, name, passed, detail, ms))
    return results
