import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulermeasure import (
    choose_construction,
    cli,
    exact_series,
    fibonacci_subsets,
    map_spaces,
    power_gizmos,
    verify,
)
from eulermeasure.cli import Command, build_parser, main, run
from eulermeasure.errors import InputError, ParseError
from eulermeasure.exact_series import SeriesPrefix, continue_series
from eulermeasure.interval_sets import NEG_INF, POS_INF, OpenInterval, Point, PolyhedralSet1D, ext
from eulermeasure.partition_combinatorics import integer_binomial, iterated_binomial
from eulermeasure.setparse import MAX_NESTING_DEPTH, parse_set_expression, to_expression
from eulermeasure.verify import random_piece_set, random_polyhedral_set, run_verify, set_with_chi

F = Fraction
# 5001 open intervals: chi = -5001, so the default window of an order bound
# -chi is 10,001 coefficients, one above the ceiling
OPEN_5001 = " u ".join(f"({2 * i},{2 * i + 1})" for i in range(5001))


@pytest.fixture
def default_digit_limit():
    """The interpreter's default limit of 4300 digits per int <-> str conversion."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


class TestParser:
    def test_union_of_intervals(self):
        a = parse_set_expression("(0,1) u (2,3)")
        assert a.euler_measure() == -2

    def test_half_open_decomposes(self):
        a = parse_set_expression("[0,1)")
        assert str(a) == "{0} u (0,1)"
        assert a.euler_measure() == 0

    def test_points_and_intersection(self):
        a = parse_set_expression("{1/2, 3} & (0,1)")
        assert str(a) == "{1/2}"

    def test_pipe_union_and_difference(self):
        a = parse_set_expression("[0,2] \\ {1} | {5}")
        assert a.euler_measure() == 0 + 1  # [0,2] minus interior point, plus {5}

    def test_complement(self):
        a = parse_set_expression("!(0,1)")
        assert a == parse_set_expression("(0,1)").complement()

    def test_infinite_bounds(self):
        a = parse_set_expression("(-inf, 0) u (0, inf)")
        assert a.euler_measure() == -2

    def test_grouping_parentheses(self):
        a = parse_set_expression("((0,1) u (2,3)) & (1/2, 5/2)")
        assert str(a) == "(1/2,1) u (2,5/2)"

    def test_empty_braces(self):
        assert parse_set_expression("{}").pieces == ()

    def test_precedence_complement_tightest(self):
        a = parse_set_expression("!{0} & {0,1}")
        assert str(a) == "{1}"

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_set_expression("(0,1) u u")
        assert err.value.position == 8

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse_set_expression("(0,1) ? {2}")
        assert err.value.position == 6

    def test_malformed_interval_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_set_expression("{0} u (3,1)")
        assert err.value.position == 6

    def test_division_by_zero(self):
        with pytest.raises(ParseError) as err:
            parse_set_expression("{1/0}")
        assert "division by zero" in str(err.value)

    def test_too_many_digits(self, default_digit_limit):
        # a long numerator is reported before its denominator is read
        for denominator in ("", "/0", "/3"):
            with pytest.raises(ParseError) as err:
                parse_set_expression("{0, " + "7" * 5000 + denominator + "}")
            assert err.value.position == 4
            assert "too many digits" in str(err.value)

    def test_long_denominator_fails_at_its_own_position(self, default_digit_limit):
        # the parser reads every denominator before it parses, and skips this one
        with pytest.raises(ParseError) as err:
            parse_set_expression("{0, 1/" + "7" * 5000 + "}")
        assert err.value.position == 4
        assert "too many digits" in str(err.value)

    def test_earlier_error_before_zero_denominator(self):
        with pytest.raises(ParseError) as err:
            parse_set_expression("(0,1) (0,1/0)")
        assert err.value.position == 6
        assert "expected 'u'" in str(err.value)

    def test_closed_at_infinity(self):
        with pytest.raises(ParseError):
            parse_set_expression("[-inf, 0)")

    @pytest.mark.parametrize("opener,closer", [("(", ")"), ("!", "")])
    def test_nesting_depth_is_a_parse_error(self, opener, closer):
        # a recursive-descent parser under the default recursion limit
        # accepted at most 194 groups and 972 '!'; both still parse
        for depth in (194, 972, MAX_NESTING_DEPTH):
            text = opener * depth + "(0,1)" + closer * depth
            assert parse_set_expression(text) == parse_set_expression("(0,1)")  # depths are even
        text = opener * 3000 + "(0,1)" + closer * 3000
        with pytest.raises(ParseError, match="nesting depth 1001 exceeds the limit of 1000") as err:
            parse_set_expression(text)
        assert err.value.position == MAX_NESTING_DEPTH

    def test_deep_nesting_exits_with_input_error(self, capsys):
        assert main(["measure", "!" * 3000 + "(0,1)"]) == 2
        assert "nesting depth" in capsys.readouterr().err
        assert main(["measure", "(" * 3000 + "(0,1)" + ")" * 3000]) == 2
        assert "nesting depth" in capsys.readouterr().err

    def test_round_trip(self):
        rng = random.Random(53)
        for _ in range(60):
            a = random_polyhedral_set(rng)
            assert parse_set_expression(to_expression(a)) == a


halves = st.integers(-20, 20).map(lambda n: F(n, 2))


@st.composite
def literals(draw):
    """One set literal of the grammar, as (text, the pieces it denotes)."""
    if draw(st.booleans()):
        values = draw(st.lists(halves, max_size=3))
        return "{" + ", ".join(map(str, values)) + "}", [Point(v) for v in values]
    a, b = sorted(draw(st.lists(halves, min_size=2, max_size=2, unique=True)))
    lower = NEG_INF if draw(st.integers(0, 5)) == 0 else ext(a)
    upper = POS_INF if draw(st.integers(0, 5)) == 0 else ext(b)
    closed_lower = lower.is_finite and draw(st.booleans())
    closed_upper = upper.is_finite and draw(st.booleans())
    text = "%s%s,%s%s" % (
        "[" if closed_lower else "(",
        lower,
        draw(st.sampled_from(["inf", "+inf"])) if upper == POS_INF else upper,
        "]" if closed_upper else ")",
    )
    pieces = [OpenInterval(lower, upper)]
    pieces += [Point(lower.value)] if closed_lower else []
    pieces += [Point(upper.value)] if closed_upper else []
    return text, pieces


def pieces_of(chain):
    return [piece for _, pieces in chain for piece in pieces]


class TestParserProperties:
    @settings(max_examples=150, deadline=1000)
    @given(st.lists(literals(), max_size=8).map(pieces_of).map(PolyhedralSet1D.from_pieces))
    def test_round_trip_with_unbounded_ends(self, a):
        assert parse_set_expression(to_expression(a)) == a

    @settings(max_examples=150, deadline=1000)
    @given(st.lists(literals(), min_size=1, max_size=40), st.data())
    def test_union_chain_is_one_canonicalization(self, chain, data):
        ops = data.draw(st.lists(st.sampled_from([" u ", " | "]), min_size=len(chain) - 1,
                                 max_size=len(chain) - 1))
        text = chain[0][0] + "".join(op + lit for op, (lit, _) in zip(ops, chain[1:]))
        assert parse_set_expression(text) == PolyhedralSet1D.from_pieces(pieces_of(chain))


class TestRun:
    def test_measure_report(self):
        report = run(Command("measure", {"set": "(0,1) u (2,3)"}))
        assert report.results["euler_measure"]["value"] == "-2"
        assert report.results["euler_measure"]["route"] == "piece-count"

    def test_choose_report(self):
        report = run(Command("choose", {"set": "(0,1) u (2,3)", "k": 3, "cells": True}))
        assert report.results["measure"]["value"] == "-4"
        assert report.results["binomial"]["value"] == "-4"
        assert report.results["cells"]["dimension_counts"] == {"3": 4}
        assert report.checks[0]["status"] == "ok"

    def test_powerset_report(self):
        report = run(Command("powerset", {"set": "(0,1)"}))
        assert report.results["value"]["value"] == "1/2"
        assert report.results["series"]["coefficients"] == ["1", "-1"]  # L + d = 1 + 1
        assert report.results["series"]["closed_form"]["denominator"] == ["1", "1"]
        # the closed form is certified by the counts; nothing is fitted
        assert "recurrence" not in report.results["series"]
        assert report.checks == []  # the library compared the routes

    def test_gizmo_report(self):
        report = run(Command("gizmo", {"set": "(0,1)", "ks": [2]}))
        assert report.results["value"]["value"] == "-1/8"
        assert report.results["routes"] == {
            "exponential_fit": "-1/8",
            "series_regularization": "-1/8",
            "iterated_binomial": "-1/8",
        }
        assert report.results["fit"]["weights"] == ["-1/2", "1/2"]
        assert report.results["support_counts"] == ["0", "1", "4", "13"]
        # the closed form of order 2, certified against bound 2 on 4 counts; nothing is fitted
        assert report.results["series"]["closed_form"]["denominator"] == ["1", "4", "3"]
        assert "recurrence" not in report.results["series"]
        assert report.checks == []  # the library compared the routes

    def test_gizmo_order_108(self):
        # default knobs: 216 support counts, the certificate L + d = 108 + 108,
        # against a closed form with coefficients of about 1500 bits
        report = run(Command("gizmo", {"set": "(0,1) u (2,3) u (4,5) u (6,7)", "ks": [3, 3, 3]}))
        assert report.results["value"]["value"] == str(iterated_binomial(F(1, 16), (3, 3, 3)))
        assert len(report.results["support_counts"]) == 216
        assert len(report.results["series"]["closed_form"]["denominator"]) == 109
        assert report.checks == []  # the library compared the routes

    def test_mapspace_finite(self):
        report = run(Command("mapspace", {"set": "(0,1)", "finite": 2}))
        assert report.results["value"]["value"] == "1/2"
        assert report.results["breakpoint_counts"] == ["2", "6"]  # L + d = 1 + 1

    def test_mapspace_pairs(self):
        report = run(Command("mapspace", {"set": "(0,1)", "finite": 2, "pairs": True}))
        assert report.results["value"]["value"] == "-1/8"
        assert report.results["pair_counts"][:4] == ["1", "27", "441", "6723"]

    def test_mapspace_concrete_codomain(self):
        report = run(Command("mapspace", {"set": "(0,1)", "b": "[0,1] u [2,3]"}))
        assert report.results["affine_space_measure"]["value"] == "2"
        assert report.results["value"]["value"] == "1/2"

    def test_mapspace_symbolic(self):
        report = run(Command("mapspace", {"set": "(0,1)", "chib": -2}))
        assert report.results["value"]["value"] == "-1/2"

    def test_mapspace_mode_validation(self):
        from eulermeasure.errors import InputError

        with pytest.raises(InputError):
            run(Command("mapspace", {"set": "(0,1)"}))
        with pytest.raises(InputError):
            run(Command("mapspace", {"set": "(0,1)", "finite": 2, "chib": 2}))
        with pytest.raises(InputError):
            run(Command("mapspace", {"set": "(0,1)", "chib": 2, "pairs": True}))

    def test_fib_report(self):
        report = run(Command("fib", {"set": "{0,1}"}))
        assert report.results["value"]["value"] == "2"
        assert report.results["expected_fibonacci"]["value"] == "2"

    def test_every_value_carries_route(self):
        report = run(Command("gizmo", {"set": "(0,1)", "ks": [2, 2]}))
        for key in ("euler_measure", "value"):
            assert set(report.results[key]) == {"value", "route"}

    def test_verb_table_matches_parser(self):
        (subcommands,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(subcommands.choices) == set(cli._VERBS)
        with pytest.raises(InputError, match="unknown command 'nope'"):
            run(Command("nope", {}))


class TestJsonReports:
    def test_schema_field(self):
        report = run(Command("measure", {"set": "{0}"}))
        blob = json.loads(report.to_json())
        assert blob["schema"] == 1
        assert blob["inputs"] == {"set": "{0}"}

    def test_rationals_round_trip(self):
        report = run(Command("gizmo", {"set": "(0,1)", "ks": [2]}))
        blob = json.loads(report.to_json())
        assert F(blob["results"]["value"]["value"]) == F(-1, 8)
        coeffs = [F(c) for c in blob["results"]["series"]["coefficients"]]
        weights = [F(w) for w in blob["results"]["fit"]["weights"]]
        assert weights == [F(-1, 2), F(1, 2)]
        assert coeffs[:4] == [F(0), F(-1), F(4), F(-13)]

    def test_no_floats_anywhere(self):
        for command in (
            Command("powerset", {"set": "(0,1) u (2,3)"}),
            Command("mapspace", {"set": "(0,1)", "chib": 3}),
            Command("fib", {"set": "[0,1]"}),
        ):
            blob = run(command).to_json()

            def walk(node):
                if isinstance(node, float):
                    raise AssertionError(f"float leaked into report: {node}")
                if isinstance(node, dict):
                    for v in node.values():
                        walk(v)
                elif isinstance(node, list):
                    for v in node:
                        walk(v)

            walk(json.loads(blob))


class TestMain:
    def test_exit_zero_and_output(self, capsys):
        code = main(["measure", "(0,1)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "euler_measure [piece-count]: -1" in out
        code = main(["powerset", "(0,1)", "--terms", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "value [binomial-closed-form]: 1/2" in out
        assert "warning" not in out

    def test_json_flag(self, capsys):
        # default sizing reaches the order bound: 18 for the gizmo, 8 for fib on 7 points
        for argv, value in (
            (["gizmo", "(0,1)", "--ks", "2"], "-1/8"),
            (["gizmo", "(0,1) u (2,3) u (4,5)", "--ks", "2,3"], "-82845/4194304"),
            (["fib", "{0,1,2,3,4,5,6}"], "21"),
            (["mapspace", "(0,1)", "--finite", "4", "--pairs"], "-3/32"),
        ):
            code = main(argv + ["--json"])
            assert code == 0
            blob = json.loads(capsys.readouterr().out)
            assert blob["results"]["value"]["value"] == value

    def test_input_error_exit_code(self, capsys):
        code = main(["measure", "(3,1)"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error [input]" in err
        for knob, argv in (
            ("terms must be at least 0, got -1",
             ["gizmo", "(0,1)", "--ks", "2", "--terms", "-1"]),
            ("terms must be at least 0, got -5", ["powerset", "(0,1)", "--terms", "-5"]),
            ("k must be at least 0, got -1", ["choose", "(0,1)", "-k", "-1"]),
            ("selection size (--ks)", ["gizmo", "(0,1)", "--ks", ","]),
            ("--ks sizes must be at least 1, got 0", ["gizmo", "(0,1)", "--ks", "0"]),
        ):
            assert main(argv) == 2
            assert knob in capsys.readouterr().err

    @pytest.mark.parametrize("pairs", [[], ["--pairs"]], ids=["maps", "pairs"])
    def test_empty_codomain_names_finite(self, capsys, pairs):
        # the message names the knob, as --ks 0 does
        assert main(["mapspace", "(0,1)", "--finite", "0", *pairs]) == 2
        assert capsys.readouterr().err == "error [input]: --finite must be at least 1, got 0\n"

    @pytest.mark.parametrize("text, position, char", [
        ("{٣} u (١,٢)", 1, "٣"),  # Arabic-Indic 3, 1, 2
        ("(1٣,2)", 2, "٣"),
        ("{５}", 1, "５"),  # fullwidth 5
        ("{1/२}", 2, "/"),  # Devanagari 2: '1' is a whole number, and '/' starts no token
        ("(0,1) u ) x", 10, "x"),  # before the grammar error at 8
        ("(0,1) u (1/0,2) x", 16, "x"),  # before the division by zero at 9
    ])
    def test_non_ascii_digits_are_refused(self, capsys, text, position, char):
        # the grammar's digits are 0-9; int() would take any Unicode digit.
        # An unexpected character is refused before any grammar error.
        assert main(["measure", text]) == 2
        assert capsys.readouterr().err == (
            f"error [input]: syntax error at position {position}: "
            f"unexpected character {char!r}\n")

    def test_powerset_refuses_negative_max_order_before_any_work(self, capsys, monkeypatch):
        # the parser refuses the option, with or without --json; test_knob_sweep
        # holds every other verb to the same refusal
        monkeypatch.setattr(power_gizmos, "powerset_series", None)
        for argv in (["powerset", "(0,1)", "--max-order", "-1"],
                     ["powerset", "(0,1)", "--max-order", "-1", "--json"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments: --max-order -1" in capsys.readouterr().err

    def test_text_report_shows_the_closed_form(self, capsys):
        # no construction fits a recurrence; each report shows its closed form
        for argv, closed in ((["gizmo", "(0,1)", "--ks", "2"], "(-t) / (1 + 4*t + 3*t^2)"),
                             (["powerset", "(0,1)", "--terms", "7"], "(1) / (1 + t)")):
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert f"  closed form: {closed}" in out and "recurrence" not in out

    @pytest.mark.parametrize("chi", range(-5, 6))
    def test_default_powerset_refit_is_certified(self, chi, capsys):
        # the report fits nothing, but Berlekamp-Massey on the default prefix
        # it prints finds its closed form, certified on L + d coefficients
        assert main(["powerset", to_expression(set_with_chi(chi)), "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["warnings"] == []
        assert blob["checks"] == []
        series, bound = blob["results"]["series"], -chi if chi < 0 else chi + 1
        assert "recurrence" not in series
        refit = continue_series(SeriesPrefix(tuple(map(F, series["coefficients"]))), bound)
        assert refit.order_bound == bound
        assert cli._rf_dict(refit.closed_form) == series["closed_form"]
        assert len(series["coefficients"]) == refit.recurrence.order + bound

    def test_route_disagreement_exits_5(self, capsys, monkeypatch):
        monkeypatch.setattr(map_spaces, "gen_binomial", lambda x, k: Fraction(1, 3))
        assert main(["mapspace", "(0,1)", "--finite", "2", "--pairs"]) == 5
        assert capsys.readouterr().err == (
            "error [internal]: route disagreement: series_regularization gives -1/8, "
            "generalized_binomial gives 1/3\n"
        )

    def test_exact_values_past_the_digit_limit(self, capsys, default_digit_limit):
        huge = "7" * 5000
        assert main(["measure", "{" + huge + "}"]) == 0
        assert f"canonical: {{{huge}}}" in capsys.readouterr().out
        # support counts of 10,000 digits and more, in text and in JSON
        argv = ["gizmo", "{" + ",".join(map(str, range(200))) + "}", "--ks", "40"]
        assert main(argv) == 0
        assert f"value [exponential-fit]: {math.comb(2 ** 200, 40)}" in capsys.readouterr().out
        assert main(argv + ["--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert int(blob["results"]["value"]["value"]) == math.comb(2 ** 200, 40)
        assert max(len(n) for n in blob["results"]["support_counts"]) > 4300
        # main lifts the limit for its own call only; the library alone keeps it
        assert sys.get_int_max_str_digits() == 4300
        with pytest.raises(ParseError) as err:
            run(Command("measure", {"set": "{" + huge + "}"}))
        assert err.value.exit_code == 2 and err.value.position == 1

    def test_resource_error_exit_code(self, capsys):
        assert main(["choose", "(0,1)", "-k", "10001"]) == 3
        assert "-k 10001 exceeds the ceiling of 10000; use a smaller -k" in capsys.readouterr().err
        # terms is capped before any counting, whether set or derived
        for argv, origin in (
            (["powerset", "(0,1)", "--terms", "100000000"], "terms 100000000 exceeds"),
            (["mapspace", "(0,1)", "--finite", "2", "--terms", "100000000"], "terms 100000000 exceeds"),
            (["gizmo", "(0,1)", "--ks", "2", "--terms", "10001"], "terms 10001 exceeds"),
            (["gizmo", "(0,1)", "--ks", "71,71"],
             "terms 10081 (the default for order bound 5041)"),
            # the gizmo size ceiling, checked before the support counts
            (["gizmo", "(0,1)", "--ks", "8,8"], "--ks 8,8 (J = 64) on a set of measure -1"),
            (["gizmo", "(0,1)", "--ks", "61"], "1891-bit denominators, above the ceiling of 1830"),
            (["gizmo", "(0,1) u (2,3) u (4,5) u (6,7)", "--ks", "7,7"], "use smaller --ks"),
            (["gizmo", "{0}", "--ks", "16,16"], "--ks 16,16 (J = 256)"),
        ):
            assert main(argv) == 3
            assert origin in capsys.readouterr().err

    def test_fib_window_before_any_count(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("parity polynomial counted above the terms ceiling")

        monkeypatch.setattr(fibonacci_subsets, "parity_polynomial", refuse)
        for argv, origin in (
            (["fib", "{" + ",".join(map(str, range(5000))) + "}"],
             "terms 10001 (the default for order bound 5001) exceeds"),
            (["fib", "{0,1}", "--terms", "10001"], "terms 10001 exceeds"),
        ):
            assert main(argv) == 3
            assert origin in capsys.readouterr().err
        # one point less fits the window 2d - 1 = 9999, so the count starts
        with pytest.raises(AssertionError, match="parity polynomial counted"):
            main(["fib", "{" + ",".join(map(str, range(4999))) + "}"])

    @pytest.mark.parametrize("argv, origin, builders", [
        (["powerset", OPEN_5001], "terms 10001 (the default for order bound 5001)",
         [(power_gizmos, "binomial_closed_form"), (power_gizmos, "integer_binomial")]),
        (["powerset", "(0,1)", "--terms", "10001"], "terms 10001 exceeds",
         [(power_gizmos, "binomial_closed_form"), (power_gizmos, "integer_binomial")]),
        (["gizmo", OPEN_5001, "--ks", "1"], "terms 10001 (the default for order bound 5001)",
         [(power_gizmos, "check_gizmo_size"), (power_gizmos, "_polynomial_weights"),
          (power_gizmos, "_closed_form"), (power_gizmos, "gizmo_support_count")]),
        (["gizmo", "(0,1)", "--ks", "1", "--terms", "10001"], "terms 10001 exceeds",
         [(power_gizmos, "check_gizmo_size"), (power_gizmos, "_polynomial_weights"),
          (power_gizmos, "_closed_form"), (power_gizmos, "gizmo_support_count")]),
        (["mapspace", OPEN_5001, "--finite", "2"], "terms 10001 (the default for order bound 5001)",
         [(map_spaces, "binomial_closed_form")]),
        (["mapspace", "(0,1)", "--finite", "2", "--terms", "10001"], "terms 10001 exceeds",
         [(map_spaces, "binomial_closed_form")]),
        (["mapspace", "(0,1)", "--finite", "2", "--pairs", "--terms", "10001"],
         "terms 10001 exceeds", [(map_spaces, "_pair_closed_form"), (map_spaces, "finite_pair_count")]),
        (["mapspace", "(0,1)", "--chib", "-2", "--terms", "10001"], "terms 10001 exceeds",
         [(map_spaces, "binomial_closed_form"), (map_spaces, "schanuel_count")]),
        (["fib", "{" + ",".join(map(str, range(5000))) + "}"],
         "terms 10001 (the default for order bound 5001)", [(fibonacci_subsets, "parity_polynomial")]),
        (["fib", "{0,1}", "--terms", "10001"], "terms 10001 exceeds",
         [(fibonacci_subsets, "parity_polynomial")]),
    ], ids=["powerset-default", "powerset-terms", "gizmo-default", "gizmo-terms",
            "finite-default", "finite-terms", "pairs-terms", "chib-terms", "fib-default", "fib-terms"])
    def test_window_before_any_work(self, argv, origin, builders, capsys, monkeypatch):
        # every construction sizes its window before it builds its closed form
        # or counts anything; the runner weighs every weighted count with
        # exact_series.integer_binomial
        def refuse(*args, **kwargs):
            raise AssertionError("built or counted above the terms ceiling")

        for module, name in builders + [(exact_series, "integer_binomial")]:
            monkeypatch.setattr(module, name, refuse)
        assert main(argv) == 3
        assert origin in capsys.readouterr().err

    def test_single_valued_codomain_on_many_pieces(self, capsys):
        # --finite 1 declares order bound 1, so 5001 pieces fit the default window
        assert main(["mapspace", OPEN_5001, "--finite", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "series (breakpoints): 1, 0" in out and "value [breakpoint-series]: 1" in out

    def test_json_error_payload(self, capsys):
        code = main(["measure", "(3,1)", "--json"])
        blob = json.loads(capsys.readouterr().out)
        assert code == 2
        assert blob["error"]["class"] == "input"

    def test_unsupported_domain_is_input_class(self, capsys):
        code = main(["mapspace", "{0} u (0,1)", "--finite", "2"])
        assert code == 2

    def test_parser_flags(self):
        ns = build_parser().parse_args(["gizmo", "(0,1)", "--ks", "2,3", "--terms", "30"])
        assert ns.ks == [2, 3]
        assert ns.terms == 30

    @pytest.mark.parametrize("argv,code,lines_read", [
        # about 300 KB: it outgrows the pipe buffer, so the process is
        # still printing when the reader goes away after one line
        (["gizmo", "(0,1)", "--ks", "7,8", "--json"], 0, 1),
        # the error payload, written after the reader has already gone
        (["measure", "(3,1)", "--json"], 2, 0),
    ], ids=["report", "error"])
    def test_reader_closing_the_pipe_early(self, argv, code, lines_read):
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "eulermeasure", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=os.environ | {"PYTHONPATH": path},
        )
        for _ in range(lines_read):
            assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == code
        assert b"Traceback" not in err and err == b""


GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_reports.json"

# An earlier call that sets an option, its exit code, and a later call,
# recorded in the golden file, that omits the option.
REUSE_SEQUENCES = {
    "terms-and-json": (["gizmo", "(0,1)", "--ks", "2,2", "--terms", "30", "--json"], 0,
                       ["gizmo", "(0,1)", "--ks", "2,2"]),
    "cells": (["choose", "(0,1) u (2,3)", "-k", "3", "--cells"], 0,
              ["choose", "(0,1) u (2,3)", "-k", "3"]),
    "pairs": (["mapspace", "(0,1)", "--finite", "2", "--pairs"], 0,
              ["mapspace", "(0,1)", "--finite", "2"]),
    "after-parse-error": (["gizmo", "(0,1)"], 2, ["fib", "{0,1}"]),
}


@pytest.mark.parametrize("case", sorted(REUSE_SEQUENCES))
def test_parser_reuse_keeps_no_options(case, capsys):
    # main reuses one parser per process; a later call must report exactly
    # what a fresh process reports (the golden file)
    first, first_code, later = REUSE_SEQUENCES[case]
    assert build_parser() is build_parser()
    try:
        code = main(first)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    assert code == first_code
    capsys.readouterr()
    code = main(later)
    out, err = capsys.readouterr()
    golden = {" ".join(c["argv"]): c["text"] for c in json.loads(GOLDEN.read_text())}
    assert {"exit_code": code, "stdout": out.splitlines(), "stderr": err.splitlines()} == (
        golden[" ".join(later)]
    )


class TestChooseContract:
    """choose counts its cells, so its cost does not grow with their number."""

    @pytest.mark.parametrize("expr,k", [
        (" u ".join(f"({2 * i},{2 * i + 1})" for i in range(40)), 12),
        ("{-3} u (-inf,-2) u {0,1} u (1,2) u [4,5] u (6,inf)", 200),
    ], ids=["40-intervals-k12", "mixed-k200"])
    def test_large_selection_finishes(self, expr, k, capsys):
        chi = parse_set_expression(expr).euler_measure()
        start = time.perf_counter()
        code = main(["choose", expr, "-k", str(k), "--json"])
        elapsed = time.perf_counter() - start
        blob = json.loads(capsys.readouterr().out)
        assert code == 0
        assert blob["results"]["measure"]["value"] == str(integer_binomial(chi, k))
        assert elapsed < 0.05

    @settings(max_examples=100, deadline=1000)
    @given(st.integers(0, 2**32), st.integers(-2, 40))
    def test_exit_code_and_measure(self, seed, k):
        a = random_piece_set(random.Random(seed), 8)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["choose", to_expression(a), "-k", str(k), "--json"])
        blob = json.loads(out.getvalue())
        if k < 0:
            assert code == 2 and "k must be at least 0" in blob["error"]["message"]
        else:
            assert code == 0
            assert blob["results"]["measure"]["value"] == blob["results"]["binomial"]["value"]

    def test_k_ceiling_before_any_count(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("cells counted above the -k ceiling")

        monkeypatch.setattr(choose_construction, "cell_counts", refuse)
        assert main(["choose", "(0,1)", "-k", "10001"]) == 3
        assert "use a smaller -k" in capsys.readouterr().err

    def test_failed_binomial_identity_exits_1(self, capsys, monkeypatch):
        # a wrong count table: one 0-cell where binom(-1, 2) = 1 needs one 2-cell
        monkeypatch.setattr(choose_construction, "cell_counts", lambda a, k: {0: 1, 2: 1})
        assert main(["choose", "(0,1)", "-k", "2"]) == 1
        assert "check binomial-identity: fail" in capsys.readouterr().out.splitlines()
        assert main(["choose", "(0,1)", "-k", "2", "--json"]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["checks"] == [{"name": "binomial-identity", "status": "fail"}]
        assert blob["results"]["measure"]["value"] == "2"


class TestMapPairsContract:
    """mapspace --pairs counts in closed form, so no codomain size meets a cap."""

    @pytest.mark.parametrize("bsize,value", [(9, "-4/81"), (12, "-11/288")])
    def test_large_codomain_finishes(self, bsize, value, capsys):
        start = time.perf_counter()
        code = main(["mapspace", "(0,1)", "--finite", str(bsize), "--pairs", "--json"])
        elapsed = time.perf_counter() - start
        blob = json.loads(capsys.readouterr().out)
        assert code == 0 and blob["results"]["value"]["value"] == value
        assert elapsed < 0.05

    @settings(max_examples=100, deadline=1000)
    @given(st.integers(-3, 2000), st.sampled_from([None, *range(-1, 9), 24]))
    def test_exit_code_and_value(self, bsize, terms):
        argv = ["mapspace", "(0,1)", "--finite", str(bsize), "--pairs", "--json"]
        if terms is not None:
            argv += ["--terms", str(terms)]
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        elapsed = time.perf_counter() - start
        blob = json.loads(out.getvalue())
        assert code in {0, 2, 3} and elapsed < 0.25
        if code == 0:
            assert blob["results"]["value"]["value"] == str(F(1 - bsize, 2 * bsize ** 2))
            # the certificate L + d: order 2, or the zero series for b = 1
            default = 4 if bsize > 1 else 2
            assert len(blob["results"]["pair_counts"]) == (default if terms is None else terms + 1)
            return
        message = blob["error"]["message"]
        bad = {"--finite": bsize < 1, "terms": terms is not None and terms < 0}
        assert any(knob in message for knob, is_bad in bad.items() if is_bad)


class TestVerify:
    def test_unknown_scope(self):
        from eulermeasure.errors import InputError

        with pytest.raises(InputError):
            run_verify("nonsense")

    def test_verify_report(self):
        report = run(Command("verify", {"scope": "choose_construction"}))
        assert report.exit_status == 0
        assert report.results["failures"] == 0
        assert all(c["status"] == "ok" for c in report.checks)

    def test_empty_scope_is_refused(self, capsys):
        assert main(["verify", "--scope", ""]) == 2
        err = capsys.readouterr().err
        assert "unknown verify scope ''" in err and ", ".join(verify.SCOPES) in err

    def test_no_scope_runs_every_check(self, monkeypatch):
        checks = [("cli", "first", lambda: None), ("fibonacci_subsets", "second", lambda: None)]
        monkeypatch.setattr(verify, "CHECKS", checks)
        report = run(Command("verify", {}))
        assert report.inputs == {"scope": "all"}
        assert [c["name"] for c in report.checks] == ["cli.first", "fibonacci_subsets.second"]

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        failing = ("cli", "always_fails", lambda: "a counterexample")
        monkeypatch.setattr(verify, "CHECKS", [*verify.CHECKS, failing])
        assert main(["verify", "--scope", "cli"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "failures: 1" in lines
        assert "check cli.always_fails: fail (a counterexample)" in lines
        assert main(["verify", "--scope", "cli", "--json"]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["results"] == {"checks_run": 4, "failures": 1}

    def test_json_reports_the_time_of_each_check(self, capsys):
        assert main(["verify", "--scope", "cli", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert set(blob["results"]) == {"checks_run", "failures"}
        assert len(blob["checks"]) == blob["results"]["checks_run"] == 3
        for check in blob["checks"]:
            assert check["status"] == "ok" and check["ms"] >= 0
        assert main(["verify", "--scope", "cli"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3:] == [f"check {check['name']}: ok" for check in blob["checks"]]


# Each case with the value its construction must report: the iterated
# binomial of 2^chi for gizmos (orders 2, 8 and 18), F(chi + 1) for fib,
# binom(1/2, 2) for map pairs, 2^chi for the power set, b^chi(A) for a
# finite codomain and 1/chi(B) for a compact or symbolic one.
SWEEP_CASES = {
    "gizmo-order-2": (["gizmo", "(0,1)", "--ks", "2"], iterated_binomial(F(1, 2), (2,))),
    "gizmo-order-8": (["gizmo", "(0,1) u (2,3)", "--ks", "2,2"], iterated_binomial(F(1, 4), (2, 2))),
    "gizmo-order-18": (
        ["gizmo", "(0,1) u (2,3) u (4,5)", "--ks", "2,3"], iterated_binomial(F(1, 8), (2, 3))
    ),
    "fib-7-points": (["fib", "{0,1,2,3,4,5,6}"], F(21)),
    "map-pairs": (["mapspace", "(0,1)", "--finite", "2", "--pairs"], F(-1, 8)),
    "powerset": (["powerset", "(0,1)"], F(1, 2)),
    "mapspace-finite": (["mapspace", "(0,1) u (2,3)", "--finite", "3"], F(1, 9)),
    "mapspace-chib": (["mapspace", "(0,1)", "--chib", "-2"], F(-1, 2)),
    "mapspace-b": (["mapspace", "(0,1)", "--b", "[0,1] u [2,3]"], F(1, 2)),
}


@pytest.mark.parametrize("max_order", [None, -1, 0, 1, 2, 8])
@pytest.mark.parametrize("terms", [None, -1, 0, 1, 2, 3, 5, 8, 24])
@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_knob_sweep(case, terms, max_order, capsys):
    # terms is the one series knob; each fit's order is capped by the bound
    # its construction proves, so --max-order is refused with any terms
    argv, expected = SWEEP_CASES[case]
    if terms is not None:
        argv = argv + ["--terms", str(terms)]
    if max_order is not None:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--max-order", str(max_order), "--json"])
        assert exc.value.code == 2 and "unrecognized arguments: --max-order" in capsys.readouterr().err
        return
    code = main(argv + ["--json"])
    blob = json.loads(capsys.readouterr().out)
    assert code in (0, 2, 3)
    if code == 0:
        assert F(blob["results"]["value"]["value"]) == expected
    else:
        assert terms is not None and "terms" in blob["error"]["message"]
