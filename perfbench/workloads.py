"""Seeded query mixes for the four workloads, with the oracle check of each.

A run repeats *cycles*.  Every cycle of a workload has the same
composition -- the same number of queries of each kind and cost class
(verb, recurrence order, piece structure, literal-count stratum) -- and
the seed draws everything else: coordinates, literal forms, operators,
query order.  Keeping the composition fixed is what keeps medians and
means steady from seed to seed; the seed still changes every input the
program sees.

Library queries look functions up on their module when they run, so a
traced run goes through the tracer's wrappers.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle
from eulermeasure import (
    choose_construction,
    fibonacci_subsets,
    map_spaces,
    power_gizmos,
    setparse,
)
from layers import SCOPES
from oracle import Grid, check


@dataclass
class Query:
    """One request: a CLI argv run through ``cli.main`` or a library call."""

    kind: str
    sizes: dict
    check: Callable
    argv: list[str] | None = None
    call: Callable | None = None


@dataclass
class CliAnswer:
    code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Workload:
    name: str
    limit_s: float  # per-query limit; a failure is charged this latency
    build_cycle: Callable[[random.Random], list[Query]]

    def cycle(self, seed: int, index: int) -> list[Query]:
        return self.build_cycle(random.Random(f"{self.name}:{seed}:{index}"))


# -- set generation on the oracle's grid -----------------------------------


@dataclass
class GeneratedSet:
    text: str
    grid: Grid
    mask: int

    @property
    def chi(self) -> int:
        return oracle.chi(self.mask)

    @property
    def pieces(self) -> int:
        return len(self._canonical_pieces())

    @property
    def points(self) -> int:
        return sum(1 for piece in self._canonical_pieces() if piece.startswith("{"))

    def _canonical_pieces(self) -> list[str]:
        return oracle.canonical_text(self.grid, self.mask).split(" u ") if self.mask else []


def _random_grid(rng: random.Random, size: int) -> Grid:
    return Grid(size, shift=rng.randint(-size, size // 2), scale=rng.choice((1, 1, 2, 3, 4, 7)))


def _num(grid: Grid, i: int) -> str:
    return str(grid.value(i))


# Literal kinds by the pieces they contribute: (points, open intervals).
_KIND_SHAPE = {
    "open": (0, 1),
    "closed": (2, 1),
    "lclosed": (1, 1),
    "rclosed": (1, 1),
    "point": (1, 0),
}


def _literal(rng, grid: Grid, kind: str, lo: int, hi: int) -> tuple[str, int]:
    """Text and cell mask of one literal spanning grid indices lo..hi."""
    a, b = _num(grid, lo), _num(grid, hi)
    if kind == "point":
        return "{%s}" % a, grid.points([lo])
    if kind == "points":
        chosen = sorted(rng.sample(range(lo, hi + 1), rng.randint(1, min(3, hi - lo + 1))))
        return "{%s}" % ", ".join(_num(grid, i) for i in chosen), grid.points(chosen)
    if kind == "empty":
        return "{}", 0
    if kind.startswith("ray_left"):
        closed = kind.endswith("closed")
        return f"(-inf,{b}{']' if closed else ')'}", grid.interval(None, hi, False, closed)
    if kind.startswith("ray_right"):
        closed = kind.endswith("closed")
        inf = rng.choice(("inf", "+inf"))
        return f"{'[' if closed else '('}{a},{inf})", grid.interval(lo, None, closed, False)
    closed_lo = kind in ("closed", "lclosed")
    closed_hi = kind in ("closed", "rclosed")
    sep = rng.choice((",", ", "))
    text = f"{'[' if closed_lo else '('}{a}{sep}{b}{']' if closed_hi else ')'}"
    return text, grid.interval(lo, hi, closed_lo, closed_hi)


def disjoint_set(rng, kinds: list[str], bounded: bool = True) -> GeneratedSet:
    """Literals of the given kinds, left to right with gaps, so no piece merges."""
    positions = []
    x = 0
    for _ in kinds:
        lo = x + rng.randint(1, 2)
        hi = lo + rng.randint(1, 3)
        positions.append((lo, hi))
        x = hi
    grid = _random_grid(rng, x + 2)
    texts, mask = [], 0
    for i, (kind, (lo, hi)) in enumerate(zip(kinds, positions)):
        if not bounded and kind == "open" and i == 0 and rng.random() < 0.3:
            kind = "ray_left"
        elif not bounded and kind == "open" and i == len(kinds) - 1 and rng.random() < 0.3:
            kind = "ray_right"
        text, cells = _literal(rng, grid, kind, lo, hi)
        texts.append(text)
        mask |= cells
    if not texts:
        texts, mask = ["{}"], 0
    return GeneratedSet(" u ".join(texts), grid, mask)


def random_set(rng, max_pieces: int, chi: int | None = None,
               bounded: bool = True) -> GeneratedSet:
    """Disjoint literals of random kinds within the piece budget, with the
    given chi when one is asked for (by rejection sampling)."""
    if chi == 0 and rng.random() < 0.1:
        return disjoint_set(rng, [])
    while True:
        kinds = [rng.choice(list(_KIND_SHAPE)) for _ in range(rng.randint(1, max_pieces))]
        points = sum(_KIND_SHAPE[k][0] for k in kinds)
        opens = sum(_KIND_SHAPE[k][1] for k in kinds)
        if points + opens <= max_pieces and (chi is None or points - opens == chi):
            return disjoint_set(rng, kinds, bounded)


# -- answer parsing and checks ------------------------------------------------


_TEXT_LINE = re.compile(r"^(\w+)(?: \[(.+?)\])?: (.*)$")


def parse_report(answer: CliAnswer, as_json: bool) -> tuple[dict, list[tuple[str, str]]]:
    """(results as {key: value string}, [(check name, status)]) from either format."""
    if as_json:
        blob = json.loads(answer.stdout)
        check(blob.get("schema") == 1, "JSON report has no schema 1")
        results = {}
        for key, value in blob["results"].items():
            results[key] = value["value"] if isinstance(value, dict) and "value" in value else value
        return results, [(c["name"], c["status"]) for c in blob["checks"]]
    results, checks = {}, []
    for line in answer.stdout.splitlines():
        if line.startswith("check "):
            name, _, rest = line[len("check "):].partition(": ")
            checks.append((name, rest.split(" ", 1)[0]))
            continue
        m = _TEXT_LINE.match(line)
        if m:
            results.setdefault(m.group(1), m.group(3))
    return results, checks


def _expect_value(results: dict, key: str, expected, what: str):
    got = results.get(key)
    check(got is not None and Fraction(str(got)) == Fraction(expected),
          f"{what}: {key} = {got}, oracle says {expected}")


def _checks_ok(checks, what: str):
    bad = [name for name, status in checks if status != "ok"]
    check(not bad, f"{what}: checks not ok: {bad}")


def cli_check(as_json: bool, expect: dict, what: str, extra: Callable | None = None):
    def run_check(answer: CliAnswer):
        results, checks = parse_report(answer, as_json)
        for key, value in expect.items():
            _expect_value(results, key, value, what)
        _checks_ok(checks, what)
        if extra is not None:
            extra(results)
    return run_check


def measure_check(s: GeneratedSet, as_json: bool):
    canonical = oracle.canonical_text(s.grid, s.mask)
    cls = oracle.classification(s.grid, s.mask)

    def run_check(answer: CliAnswer):
        results, _ = parse_report(answer, as_json)
        what = f"measure {s.text!r}"
        check(results.get("canonical") == canonical,
              f"{what}: canonical {results.get('canonical')!r}, oracle says {canonical!r}")
        _expect_value(results, "euler_measure", s.chi, what)
        got = results.get("classification")
        want = cls if as_json else ", ".join(f"{k}={v}" for k, v in cls.items())
        check(got == want, f"{what}: classification {got}, oracle says {want}")
    return run_check


def _cli(kind: str, sizes: dict, argv: list[str], as_json: bool, checker) -> Query:
    return Query(f"{kind}.{'json' if as_json else 'text'}", sizes,
                 checker, argv=argv + (["--json"] if as_json else []))


# -- sets ---------------------------------------------------------------------

SETS_STRATA = 12
FIXED_TOP_STRATA = 3
SETS_MIN, SETS_MAX = 8, 96


def _literal_deck(rng, n: int) -> list[str]:
    """The kinds of n literals in fixed proportions, shuffled: 4 % rays of
    each side, 2 % empty sets, 15 % point sets, the rest intervals."""
    rays, empty, points = round(0.04 * n), round(0.02 * n), round(0.15 * n)
    deck = ([rng.choice(("ray_left", "ray_left_closed")) for _ in range(rays)]
            + [rng.choice(("ray_right", "ray_right_closed")) for _ in range(rays)]
            + ["empty"] * empty + ["points"] * points)
    intervals = ("open", "open", "closed", "lclosed", "rclosed")
    deck += [intervals[i % len(intervals)] for i in range(n - len(deck))]
    rng.shuffle(deck)
    return deck


def _overlapping_chain(rng, grid: Grid, n: int) -> tuple[list[str], int]:
    """n literals at random places on the grid: they touch and overlap.

    Rays end within two cells of the grid's edge.  A ray reaching far in
    would swallow most of the chain, and the parse cost would then hang on
    where in the chain the ray happened to fall."""
    texts, mask = [], 0
    for kind in _literal_deck(rng, n):
        lo = rng.randint(0, grid.size - 1)
        hi = min(grid.size, lo + rng.randint(1, 3))
        if kind.startswith("ray_left"):
            hi = rng.randint(0, 2)
        elif kind.startswith("ray_right"):
            lo = grid.size - rng.randint(0, 2)
        text, cells = _literal(rng, grid, kind, lo, hi)
        texts.append(text)
        mask |= cells
    return texts, mask


def _plain_expression(rng, grid: Grid, n: int) -> tuple[str, int]:
    texts, mask = _overlapping_chain(rng, grid, n)
    out = texts[0]
    for text in texts[1:]:
        out += rng.choice((" u ", " u ", " | ")) + text
    return out, mask


def _combined_expression(rng, grid: Grid, n: int) -> tuple[str, int]:
    """Sub-chains joined by &, \\ and u, some complemented, fully parenthesized.

    The sub-chains have near-equal lengths, since the parse cost grows
    faster than linearly in a chain's length."""
    groups = 2 if n < 12 else rng.randint(3, 4)
    sizes = [n // groups + (1 if i < n % groups else 0) for i in range(groups)]
    operands = []
    for size in sizes:
        text, mask = _plain_expression(rng, grid, size)
        text = f"({text})"
        if rng.random() < 0.3:
            text, mask = "!" + text, grid.full & ~mask
        operands.append((text, mask))
    while len(operands) > 1:
        i = rng.randrange(len(operands) - 1)
        (ta, ma), (tb, mb) = operands[i], operands[i + 1]
        op = rng.choice(("&", "&", "\\", "\\", "u"))
        mask = ma & mb if op == "&" else ma & ~mb if op == "\\" else ma | mb
        operands[i:i + 2] = [(f"({ta} {op} {tb})", mask & grid.full)]
    return operands[0]


def sets_cycle(rng: random.Random) -> list[Query]:
    """A plain chain and a combination in each of 12 log-uniform strata of
    the literal count, 8 to 96.  The count is drawn within the stratum,
    except in the top FIXED_TOP_STRATA, which take their upper end: their
    parse cost grows about as the cube of the count and sets the mean."""
    queries = []
    for stratum in range(SETS_STRATA):
        fixed = stratum >= SETS_STRATA - FIXED_TOP_STRATA
        for combined in (False, True):
            u = (stratum + (1.0 if fixed else rng.random())) / SETS_STRATA
            n = round(SETS_MIN * (SETS_MAX / SETS_MIN) ** u)
            grid = _random_grid(rng, n)
            build = _combined_expression if combined else _plain_expression
            text, mask = build(rng, grid, n)
            s = GeneratedSet(text, grid, mask)
            kind = "measure.combined" if combined else "measure.plain"
            queries.append(_cli(kind, {"pieces": n, "result_pieces": s.pieces},
                                ["measure", text], True, measure_check(s, True)))
    rng.shuffle(queries)
    return queries


# -- regularize -----------------------------------------------------------------

GIZMO_KS = ((2,), (3,), (2, 2), (2, 3), (3, 3), (2, 2, 2))
MAX_GIZMO_ORDER = 24
# Left out so that one cycle fits a 20 s run on a 2-core machine: it is the
# second order-24 case, and chi=-3, ks=(2,2,2) already measures order 24.
GIZMO_SKIPPED = ((-4, (2, 3)),)


def gizmo_order(chi: int, ks) -> int:
    return chi + 1 if chi >= 0 else -chi * math.prod(ks)


def regularize_gizmo_cases():
    return [(chi, ks) for chi in range(-4, 4) for ks in GIZMO_KS
            if gizmo_order(chi, ks) <= MAX_GIZMO_ORDER and (chi, ks) not in GIZMO_SKIPPED]


def _gizmo_query(s: GeneratedSet, ks) -> Query:
    chi = s.chi
    expected = oracle.gizmo_value(chi, ks)

    def call():
        return power_gizmos.gizmo_measure(setparse.parse_set_expression(s.text),
                                          power_gizmos.GizmoSpec(ks))

    def run_check(result):
        check(result.value == result.route_exponential == result.route_series == expected,
              f"gizmo {s.text!r} ks={ks}: {result.value}, {result.route_exponential}, "
              f"{result.route_series}; oracle says {expected}")

    sizes = {"pieces": s.pieces, "order": gizmo_order(chi, ks), "chi": chi, "ks": list(ks)}
    return Query("gizmo_measure", sizes, run_check, call=call)


def _fib_query(s: GeneratedSet) -> Query:
    expected = oracle.fibonacci(s.chi + 1)

    def call():
        return fibonacci_subsets.fibonacci_measure(setparse.parse_set_expression(s.text))

    def run_check(result):
        check(result.value == expected and result.expected == expected,
              f"fib {s.text!r}: {result.value}, oracle says F({s.chi + 1}) = {expected}")

    sizes = {"pieces": s.pieces, "points": s.points, "intervals": s.pieces - s.points}
    return Query("fibonacci_measure", sizes, run_check, call=call)


def _map_pair_query(bsize: int, terms: int | None) -> Query:
    expected = oracle.map_pair_value(bsize)

    def call():
        if terms is None:
            return map_spaces.map_pair_measure(bsize)
        return map_spaces.map_pair_measure(bsize, terms)

    def run_check(result):
        check(result.value == expected,
              f"map_pair_measure({bsize}, {terms}): {result.value}, oracle says {expected}")

    return Query("map_pair_measure", {"b": bsize, "terms": terms or 7}, run_check, call=call)


def _powerset_query(s: GeneratedSet) -> Query:
    chi = s.chi

    def call():
        return power_gizmos.powerset_series(setparse.parse_set_expression(s.text))

    def run_check(result):
        coeffs = list(result.series.prefix.coefficients)
        check(result.value == oracle.power_of_two(chi)
              and coeffs == [oracle.binom(chi, k) for k in range(len(coeffs))],
              f"powerset {s.text!r}: {result.value}, oracle says 2^{chi}")

    return Query("powerset_series", {"pieces": s.pieces}, run_check, call=call)


def _ordered_query(s: GeneratedSet, k: int) -> Query:
    expected = oracle.falling(Fraction(s.chi), k)

    def call():
        return choose_construction.ordered_distinct_measure(
            setparse.parse_set_expression(s.text), k)

    def run_check(result):
        check(result == expected,
              f"ordered_distinct_measure({s.text!r}, {k}): {result}, oracle says {expected}")

    return Query("ordered_distinct_measure", {"pieces": s.pieces, "k": k}, run_check, call=call)


def _regularize_round(rng: random.Random) -> list[Query]:
    queries = [_gizmo_query(random_set(rng, 8, chi), ks)
               for chi, ks in regularize_gizmo_cases()]
    # Points only: 7 or more points fail today (known failure).
    queries += [_fib_query(disjoint_set(rng, ["point"] * n)) for n in range(1, 10)]
    # Open intervals only, 1..7 of them.
    queries += [_fib_query(disjoint_set(rng, ["open"] * n, bounded=False)) for n in range(1, 8)]
    # Mixed: points and intervals alternate, since the arrangement sets the cost.
    for points, opens in ((1, 1), (2, 1), (3, 2), (2, 3), (4, 2), (3, 3), (5, 2), (4, 4)):
        kinds = [k for pair in zip(["point"] * points, ["open"] * opens) for k in pair]
        kinds += ["point"] * (points - opens) + ["open"] * (opens - points)
        queries.append(_fib_query(disjoint_set(rng, kinds)))
    # Distinct map pairs; b=3 hits the enumeration cap today (known failure).
    queries += [_map_pair_query(2, terms) for terms in (7, 8, 9)] + [_map_pair_query(3, None)]
    queries += [_powerset_query(random_set(rng, 8, bounded=False)) for _ in range(17)]
    queries += [_ordered_query(random_set(rng, 8, bounded=False), k) for k in range(11)]
    return queries


# Light queries run this many times per cycle, each time on fresh inputs.
# Single millisecond-scale timings are noisy on a shared machine, and a
# light query's cost varies with its random set: eight rounds put 600
# samples around the median instead of 75.  Over ten seeds, the spread
# (IQR/median) of p50 and p90 stayed below 0.08 with eight rounds and
# reached 0.096 with four.  p90 lies in the light queries' tail, off the
# gap between the light and the heavy queries (the 25 heavy ones would be
# exactly the top tenth of three rounds).
LIGHT_ROUNDS = 8


def _is_light(query: Query) -> bool:
    """Cheap and expected to succeed, judged from the input's structure."""
    sizes = query.sizes
    return {
        "gizmo_measure": lambda: sizes["order"] <= 8,
        "fibonacci_measure": lambda: sizes["intervals"] <= 3 and sizes["points"] <= 6,
        "powerset_series": lambda: True,
        "ordered_distinct_measure": lambda: sizes["k"] <= 7,
        "map_pair_measure": lambda: False,
    }[query.kind]()


def regularize_cycle(rng: random.Random) -> list[Query]:
    """One full round of 100 queries, plus the light ones again LIGHT_ROUNDS - 1 times."""
    queries = _regularize_round(rng)
    for _ in range(LIGHT_ROUNDS - 1):
        queries += [q for q in _regularize_round(rng) if _is_light(q)]
    rng.shuffle(queries)
    return queries


# -- cli_mix ----------------------------------------------------------------------

KNOWN_GIZMO_FAILURE = "(0,1) u (2,3) u (4,5)"
# The CLI fixes terms=24 and max_order=8, which fits recurrences of order
# at most 6 from the first 13 coefficients.  These cases need order 9 to
# 18; every other gizmo in the mix needs at most 6.
CLI_GIZMO_TOO_DEEP = ((-2, (3, 3)), (-2, (2, 3)), (-1, (3, 3)), (-3, (2, 2)))
# Each cycle runs the README's example session this many times, each
# command half with --json and half as text.
CLI_SESSION_ROUNDS = 6
# What each round of a command works on, so that every cycle has the same
# composition.  Round r of measure, choose and powerset uses r + 1 pieces.
CLI_CHOOSE_K = (3, 1, 5, 0, 8, 2)
CLI_GIZMO_ONE = ((-1, (2,)), (0, (3,)), (1, (2,)), (2, (3,)), (3, (2,)), (4, (3,)))
CLI_GIZMO_TWO = ((-1, (2, 2)), (0, (2, 3)), (1, (3, 3)), (2, (2, 2)), (-1, (2, 3)), (3, (3, 3)))
CLI_FINITE = ((2, 1), (1, 2), (3, 3), (4, 4), (2, 5), (3, 6))  # (b, open intervals)
CLI_FIB = ((2, 0), (0, 1), (1, 1), (3, 1), (1, 2), (2, 2))  # (points, open intervals)


def _session_set(rng, pieces: int) -> GeneratedSet:
    """Disjoint literals of random kinds making exactly ``pieces`` pieces."""
    while True:
        s = random_set(rng, pieces, bounded=False)
        if s.pieces == pieces:
            return s


def _cli_measure(rng, r: int, as_json: bool) -> Query:
    s = _session_set(rng, r + 1)
    return _cli("measure", {"pieces": s.pieces}, ["measure", s.text], as_json,
                measure_check(s, as_json))


def _cli_choose(rng, r: int, as_json: bool) -> Query:
    s, k = _session_set(rng, r + 1), CLI_CHOOSE_K[r]
    expected = oracle.binom(s.chi, k)
    return _cli("choose", {"pieces": s.pieces, "k": k}, ["choose", s.text, "-k", str(k)],
                as_json, cli_check(as_json, {"measure": expected, "binomial": expected},
                                   f"choose {s.text!r} -k {k}"))


def _cli_powerset(rng, r: int, as_json: bool) -> Query:
    s = _session_set(rng, r + 1)
    return _cli("powerset", {"pieces": s.pieces}, ["powerset", s.text], as_json,
                cli_check(as_json, {"value": oracle.power_of_two(s.chi)},
                          f"powerset {s.text!r}"))


def _cli_gizmo_case(rng, as_json: bool, chi: int | None, ks) -> Query:
    """gizmo on a random set of the given chi, or on KNOWN_GIZMO_FAILURE."""
    if chi is None:
        text, chi, pieces = KNOWN_GIZMO_FAILURE, -3, 3
    else:
        s = random_set(rng, 6, chi, bounded=False)
        text, chi, pieces = s.text, s.chi, s.pieces
    ks_text = ",".join(map(str, ks))
    expected = oracle.gizmo_value(chi, ks)
    what = f"gizmo {text!r} --ks {ks_text}"

    def routes_agree(results):
        if isinstance(results.get("routes"), dict):
            for route, value in results["routes"].items():
                check(Fraction(value) == expected, f"{what}: route {route} = {value}")

    return _cli("gizmo", {"pieces": pieces, "order": gizmo_order(chi, ks), "ks": list(ks)},
                ["gizmo", text, "--ks", ks_text], as_json,
                cli_check(as_json, {"value": expected}, what, routes_agree))


def _cli_gizmo_one(rng, r: int, as_json: bool) -> Query:
    return _cli_gizmo_case(rng, as_json, *CLI_GIZMO_ONE[r])


def _cli_gizmo_two(rng, r: int, as_json: bool) -> Query:
    return _cli_gizmo_case(rng, as_json, *CLI_GIZMO_TWO[r])


def _cli_finite(rng, r: int, as_json: bool) -> Query:
    b, opens = CLI_FINITE[r]
    domain = disjoint_set(rng, ["open"] * opens)
    return _cli("mapspace.finite", {"pieces": domain.pieces, "b": b},
                ["mapspace", domain.text, "--finite", str(b)], as_json,
                cli_check(as_json, {"value": oracle.hedral_value(b, domain.chi)},
                          f"mapspace {domain.text!r} --finite {b}"))


def _cli_pairs(rng, r: int, as_json: bool) -> Query:
    domain = disjoint_set(rng, ["open"])
    return _cli("mapspace.pairs", {"pieces": 1, "b": 2},
                ["mapspace", domain.text, "--finite", "2", "--pairs"], as_json,
                cli_check(as_json, {"value": oracle.map_pair_value(2)},
                          "mapspace --finite 2 --pairs"))


def _cli_codomain(rng, r: int, as_json: bool) -> Query:
    domain = disjoint_set(rng, ["open"])
    codomain = disjoint_set(rng, [rng.choice(("closed", "point")) for _ in range(1 + r % 3)])
    chi_b = codomain.chi
    return _cli("mapspace.b", {"pieces": codomain.pieces},
                ["mapspace", domain.text, "--b", codomain.text], as_json,
                cli_check(as_json, {"value": oracle.schanuel_value(chi_b),
                                    "affine_space_measure": chi_b},
                          f"mapspace --b {codomain.text!r}"))


def _cli_chib(rng, r: int, as_json: bool) -> Query:
    domain = disjoint_set(rng, ["open"])
    chi_b = rng.randint(-3, 3)
    return _cli("mapspace.chib", {"pieces": 1, "chib": chi_b},
                ["mapspace", domain.text, "--chib", str(chi_b)], as_json,
                cli_check(as_json, {"value": oracle.schanuel_value(chi_b)},
                          f"mapspace --chib {chi_b}"))


def _cli_fib_text(as_json: bool, s: GeneratedSet, text: str) -> Query:
    expected = oracle.fibonacci(s.chi + 1)
    return _cli("fib", {"pieces": s.pieces}, ["fib", text], as_json,
                cli_check(as_json, {"value": expected, "expected_fibonacci": expected},
                          f"fib {text!r}"))


def _cli_fib(rng, r: int, as_json: bool) -> Query:
    """Points and open intervals alternate, since the arrangement sets the cost."""
    points, opens = CLI_FIB[r]
    kinds = [k for pair in zip(["point"] * points, ["open"] * opens) for k in pair]
    kinds += ["point"] * (points - opens) + ["open"] * (opens - points)
    s = disjoint_set(rng, kinds, bounded=False)
    return _cli_fib_text(as_json, s, s.text)


def _cli_fib_many_points(rng, as_json: bool) -> Query:
    """fib on one point-set literal of 7 or 8 points."""
    s = disjoint_set(rng, ["point"] * rng.randint(7, 8))
    text = "{%s}" % ", ".join(s.text.replace("{", "").replace("}", "").split(" u "))
    return _cli_fib_text(as_json, s, text)


# The README's example session: measure, choose, powerset, gizmo --ks 2,
# gizmo --ks 2,2, mapspace with --finite, --finite --pairs, --b and --chib,
# and fib.  Each command keeps its verb and flags; the round fixes the
# sizes and the seed draws the sets and literal forms.
CLI_SESSION = (_cli_measure, _cli_choose, _cli_powerset, _cli_gizmo_one, _cli_gizmo_two,
               _cli_finite, _cli_pairs, _cli_codomain, _cli_chib, _cli_fib)


def cli_mix_cycle(rng: random.Random) -> list[Query]:
    """CLI_SESSION_ROUNDS copies of the README session, plus three queries
    that fail today, by design: the documented gizmo input, one more gizmo
    whose order the CLI's fixed sizing cannot fit, and fib on a 7- or
    8-point set."""
    queries = []
    for command in CLI_SESSION:
        json_rounds = rng.sample(range(CLI_SESSION_ROUNDS), CLI_SESSION_ROUNDS // 2)
        queries += [command(rng, r, r in json_rounds) for r in range(CLI_SESSION_ROUNDS)]
    queries.append(_cli_gizmo_case(rng, True, None, (2, 3)))
    queries.append(_cli_gizmo_case(rng, False, *rng.choice(CLI_GIZMO_TOO_DEEP)))
    queries.append(_cli_fib_many_points(rng, rng.random() < 0.5))
    rng.shuffle(queries)
    return queries


# -- verify ---------------------------------------------------------------------------


def _verify_check(scope: str):
    def run_check(answer: CliAnswer):
        blob = json.loads(answer.stdout)
        results = blob["results"]
        what = f"verify --scope {scope}"
        check(results["failures"] == 0 and results["checks_run"] > 0,
              f"{what}: {results['failures']} failures of {results['checks_run']}")
        _checks_ok([(c["name"], c["status"]) for c in blob["checks"]], what)
    return run_check


def verify_cycle(rng: random.Random) -> list[Query]:
    scopes = list(SCOPES)
    rng.shuffle(scopes)
    return [Query("verify", {"scope": s}, _verify_check(s),
                  argv=["verify", "--scope", s, "--json"]) for s in scopes]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "sets": Workload("sets", limit_s=10.0, build_cycle=sets_cycle),
    # About three times the slowest successful query (gizmo order 24, 3.3 s);
    # the four failures' charge is then most of the mean (see README.md).
    "regularize": Workload("regularize", limit_s=10.0, build_cycle=regularize_cycle),
    # About three times the slowest successful cli_mix query (mapspace
    # --pairs, 75-85 ms).  Its three failures per cycle then weigh about as
    # much in the mean as its 60 successes.
    "cli_mix": Workload("cli_mix", limit_s=0.25, build_cycle=cli_mix_cycle),
    "verify": Workload("verify", limit_s=8.0, build_cycle=verify_cycle),
}
