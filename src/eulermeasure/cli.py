"""Command-line front end.

Subcommands: measure, choose, powerset, gizmo, mapspace, fib, verify.
Every exact value is printed as a "p/q" string, never a float; --json
emits one JSON object (schema 1) per invocation.  Reported values carry
the label of the route that produced them; every regularized value comes
with its "routes", and the agreement check under "checks" is computed
from them.

Set expressions follow the grammar in setparse; operator binding from
tightest to loosest is ``!``, ``&``, ``\\``, ``u``/``|``.

The argument parser is built once per process, on the first call of
``main``, and reused: ``parse_args`` keeps no state between calls, so a
later call sees none of an earlier call's options.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field

from .choose_construction import cell_counts
from .errors import EulerMeasureError, InputError, RegularizationError, UnsupportedDomainError
from .exact_series import EulerSeries, RationalFunction, continue_series
from .fibonacci_subsets import fibonacci_measure
from .interval_sets import OpenInterval, PolyhedralSet1D
from .limits import check_selection_size
from .map_spaces import (
    affine_pair_space,
    hedral_map_measure,
    map_pair_measure,
    schanuel_measure,
)
from .partition_combinatorics import integer_binomial
from .power_gizmos import GizmoSpec, gizmo_measure, powerset_series
from .setparse import parse_set_expression
from .verify import run_verify

SCHEMA_VERSION = 1


@dataclass
class Command:
    """A validated CLI request: the verb plus its verb-specific options."""

    verb: str
    options: dict


@dataclass
class Report:
    """One invocation's structured result; renders to JSON or plain text."""

    command: str
    inputs: dict
    results: dict
    checks: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    exit_status: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": SCHEMA_VERSION,
                "command": self.command,
                "inputs": self.inputs,
                "results": self.results,
                "checks": self.checks,
                "warnings": self.warnings,
            },
            indent=2,
        )

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in self.inputs.items():
            lines.append(f"{key}: {value}")
        for key, value in self.results.items():
            lines.extend(_render_result(key, value))
        for check in self.checks:
            suffix = f" ({check['detail']})" if check.get("detail") else ""
            lines.append(f"check {check['name']}: {check['status']}{suffix}")
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        return "\n".join(lines)


def _render_result(key: str, value) -> list[str]:
    if isinstance(value, dict):
        if "value" in value and "route" in value:
            return [f"{key} [{value['route']}]: {value['value']}"]
        if "coefficients" in value:
            shown = ", ".join(value["coefficients"][:10])
            if len(value["coefficients"]) > 10:
                shown += ", ..."
            lines = [f"{key} ({value['grading']}): {shown}"]
            closed = value.get("closed_form")
            if closed:
                lines.append(f"  closed form: {closed['text']}")
            rec = value.get("recurrence")
            if rec:
                taps = ", ".join(rec["taps"]) if rec["taps"] else "(none)"
                n, order, bound = len(value["coefficients"]), rec["order"], rec["order_bound"]
                proof = (
                    f"certified by order bound {bound} ({n} >= {order} + {bound} coefficients)"
                    if bound is not None
                    else f"accepted by the length contract ({n} >= 2*{order} + 2 coefficients)"
                )
                lines.append(
                    f"  recurrence: order {order}, taps {taps}; fitted on {rec['fit_terms']} "
                    f"terms, verified on {rec['verified_terms']} more; {proof}"
                )
            return lines
        flat = ", ".join(f"{k}={v}" for k, v in value.items())
        return [f"{key}: {flat}"]
    if isinstance(value, list):
        return [f"{key}: " + ", ".join(str(x) for x in value)]
    return [f"{key}: {value}"]


def _labeled(value, route: str) -> dict:
    return {"value": str(value), "route": route}


def _rf_dict(rf: RationalFunction) -> dict:
    return {
        "numerator": [str(c) for c in rf.numerator.coefficients],
        "denominator": [str(c) for c in rf.denominator.coefficients],
        "text": rf.text(),
    }


def _series_dict(series: EulerSeries) -> dict:
    out = {
        "grading": series.prefix.grading,
        "coefficients": [str(c) for c in series.prefix.coefficients],
        "closed_form": _rf_dict(series.closed_form),
    }
    if series.recurrence is not None:
        out["recurrence"] = {
            "order": series.recurrence.order,
            "taps": [str(t) for t in series.recurrence.taps],
            "fit_terms": series.fit_terms,
            "verified_terms": len(series.prefix) - series.fit_terms,
            "order_bound": series.order_bound,
        }
    return out


def _check_entry(name: str, passed: bool, detail: str = "") -> dict:
    entry = {"name": name, "status": "ok" if passed else "fail"}
    if detail:
        entry["detail"] = detail
    return entry


def _regularized_report(
    verb: str, inputs: dict, results: dict, res, route: str, check: str
) -> Report:
    """Report a construction result: its series, labelled value and routes
    after the given results, and the agreement check computed from the
    routes."""
    results = results | {
        "series": _series_dict(res.series),
        "value": _labeled(res.value, route),
        "routes": {label: str(value) for label, value in res.routes.items()},
    }
    agree = all(value == res.value for value in res.routes.values())
    return Report(verb, inputs, results, [_check_entry(check, agree)])


def _parse_input_set(options: dict) -> PolyhedralSet1D:
    text = options.get("set")
    if not text:
        raise InputError("missing set expression")
    return parse_set_expression(text)


def _require_unit_domain(a: PolyhedralSet1D, what: str):
    pieces = a.pieces
    ok = (
        len(pieces) == 1
        and isinstance(pieces[0], OpenInterval)
        and pieces[0].left.is_finite
        and pieces[0].right.is_finite
    )
    if not ok:
        raise UnsupportedDomainError(
            f"{what} needs a single bounded open interval as its domain, got {a}"
        )


# -- verb handlers -----------------------------------------------------


def _cmd_measure(options: dict) -> Report:
    a = _parse_input_set(options)
    cls = a.classify()
    results = {
        "canonical": str(a),
        "euler_measure": _labeled(a.euler_measure(), "piece-count"),
        "classification": {
            "finite": cls.finite,
            "cardinality": cls.cardinality,
            "compact": cls.compact,
            "components": len(cls.components),
            "has_isolated_points": cls.has_isolated_points,
        },
    }
    return Report("measure", {"set": options["set"]}, results)


def _cmd_choose(options: dict) -> Report:
    a = _parse_input_set(options)
    k = check_selection_size(int(options["k"]))
    counts = cell_counts(a, k)
    measure = sum(-n if d % 2 else n for d, n in counts.items())
    chi = a.euler_measure()
    binom = integer_binomial(chi, k)
    results = {
        "canonical": str(a),
        "euler_measure": _labeled(chi, "piece-count"),
        "measure": _labeled(measure, "cell-enumeration"),
        "binomial": _labeled(binom, "generalized-binomial"),
    }
    if options.get("cells"):
        results["cells"] = {
            "dimension_counts": {str(d): n for d, n in sorted(counts.items())},
            "total": sum(counts.values()),
        }
    agree = measure == binom
    return Report("choose", {"set": options["set"], "k": str(k)}, results,
                  [_check_entry("binomial-identity", agree)], exit_status=0 if agree else 1)


def _cmd_powerset(options: dict) -> Report:
    a = _parse_input_set(options)
    ps = powerset_series(a, options.get("terms"))
    results = {"canonical": str(a), "euler_measure": _labeled(a.euler_measure(), "piece-count")}
    report = _regularized_report(
        "powerset", {"set": options["set"]}, results, ps, "binomial-closed-form", "route-agreement"
    )
    try:
        refit = continue_series(ps.series.prefix)
    except (InputError, RegularizationError) as exc:
        report.warnings.append(f"independent refit skipped: {exc}")
    else:
        agree = refit.closed_form == ps.series.closed_form
        report.checks.append(_check_entry("continuation-agreement", agree))
        report.results["series"] = _series_dict(
            EulerSeries(ps.series.prefix, ps.series.closed_form, refit.recurrence)
        )
    report.exit_status = 0 if all(c["status"] == "ok" for c in report.checks) else 1
    return report


def _cmd_gizmo(options: dict) -> Report:
    a = _parse_input_set(options)
    spec = GizmoSpec(tuple(options["ks"]))
    res = gizmo_measure(a, spec, options.get("terms"))
    results = {
        "canonical": str(a),
        "ks": list(spec.ks),
        "euler_measure": _labeled(a.euler_measure(), "piece-count"),
        "support_counts": [str(n) for n in res.counts],
    }
    inputs = {"set": options["set"], "ks": ",".join(str(k) for k in spec.ks)}
    report = _regularized_report(
        "gizmo", inputs, results, res, "exponential-fit", "route-agreement"
    )
    report.results["fit"] = {
        "bases": list(res.fit.bases),
        "weights": [str(w) for w in res.fit.weights],
    }
    return report


def _cmd_mapspace(options: dict) -> Report:
    a = _parse_input_set(options)
    modes = [name for name in ("finite", "b", "chib") if options.get(name) is not None]
    if len(modes) != 1:
        raise InputError("choose exactly one of --finite N, --b SET, --chib N")
    terms = options.get("terms")
    inputs = {"set": options["set"], "mode": modes[0]}
    results = {"canonical": str(a)}
    route = "breakpoint-series"

    if options.get("pairs"):
        if modes != ["finite"]:
            raise InputError("--pairs is only defined for --finite codomains")
        _require_unit_domain(a, "the distinct-pair map space")
        bsize = int(options["finite"])
        res = map_pair_measure(bsize, terms)
        inputs["pairs"] = "true"
        results |= {"codomain_size": bsize, "pair_counts": [str(n) for n in res.counts]}
    elif modes == ["finite"]:
        bsize = int(options["finite"])
        res = hedral_map_measure(a, bsize, terms)
        inputs["finite"] = str(bsize)
        results |= {
            "codomain_size": bsize,
            "euler_measure": _labeled(a.euler_measure(), "piece-count"),
            "breakpoint_counts": [str(n) for n in res.counts],
        }
    else:
        _require_unit_domain(a, "the piecewise-affine map space")
        if modes == ["b"]:
            codomain = parse_set_expression(options["b"])
            chi_b = affine_pair_space(codomain).measure
            inputs["b"] = options["b"]
            results |= {
                "codomain": str(codomain),
                "affine_space_measure": _labeled(chi_b, "cell-enumeration"),
            }
        else:
            chi_b = int(options["chib"])
            inputs["chib"] = str(options["chib"])
        res = schanuel_measure(chi_b, terms)
        results |= {
            "codomain_measure": _labeled(chi_b, "component-count"),
            "subset_breakpoint_counts": [str(chi_b ** (2 * k + 1)) for k in range(len(res.counts))],
            "breakpoint_counts": [str(n) for n in res.counts],
        }
    return _regularized_report("mapspace", inputs, results, res, route, "route-agreement")


def _cmd_fib(options: dict) -> Report:
    p = _parse_input_set(options)
    res = fibonacci_measure(p, options.get("terms"))
    results = {"canonical": str(p), "euler_measure": _labeled(p.euler_measure(), "piece-count")}
    report = _regularized_report(
        "fib", {"set": options["set"]}, results, res, "series-regularization", "fibonacci-agreement"
    )
    report.results["expected_fibonacci"] = _labeled(res.expected, "extended-recurrence")
    return report


def _cmd_verify(options: dict) -> Report:
    scope = options.get("scope") or "all"
    outcomes = run_verify(scope)
    failures = [r for r in outcomes if not r.passed]
    checks = [
        _check_entry(f"{r.scope}.{r.name}", r.passed, r.detail) | {"ms": r.ms} for r in outcomes
    ]
    results = {
        "checks_run": len(outcomes),
        "failures": len(failures),
    }
    return Report(
        "verify", {"scope": scope}, results, checks, exit_status=0 if not failures else 1
    )


_HANDLERS = {
    "measure": _cmd_measure,
    "choose": _cmd_choose,
    "powerset": _cmd_powerset,
    "gizmo": _cmd_gizmo,
    "mapspace": _cmd_mapspace,
    "fib": _cmd_fib,
    "verify": _cmd_verify,
}


def run(command: Command) -> Report:
    """Dispatch a validated command to its module and build the report."""
    handler = _HANDLERS.get(command.verb)
    if handler is None:
        raise InputError(f"unknown command {command.verb!r}")
    return handler(command.options)


def _ks_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and shared after;
    callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="eulermeasure",
        description=(
            "Exact Euler measures of 1-D polyhedral sets and regularized "
            "measures of their power-set, selection and map-space constructions."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    series_opts = argparse.ArgumentParser(add_help=False)
    series_opts.add_argument(
        "--terms",
        type=int,
        help="ceiling on the last series coefficient index computed (default: max(4d-2, 2d+1) "
        "for the construction's order bound d; the fit stops earlier once that bound "
        "certifies it)",
    )

    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("measure", parents=[common], help="Euler measure and classification")
    p.add_argument("set", help="set expression, e.g. '(0,1) u (2,3)'")

    p = sub.add_parser("choose", parents=[common], help="measure of the k-element selections")
    p.add_argument("set")
    p.add_argument("-k", type=int, required=True, help="selection size")
    p.add_argument("--cells", action="store_true", help="include the cell counts by dimension")

    p = sub.add_parser("powerset", parents=[common, series_opts], help="Euler series of 2^A")
    p.add_argument("set")

    p = sub.add_parser(
        "gizmo", parents=[common, series_opts], help="iterated subset selection over 2^A"
    )
    p.add_argument("set")
    p.add_argument("--ks", type=_ks_list, required=True, help="selection sizes, e.g. 2,2")

    p = sub.add_parser(
        "mapspace", parents=[common, series_opts], help="map spaces out of a 1-D domain"
    )
    p.add_argument("set", help="domain expression")
    p.add_argument("--finite", type=int, help="finite codomain with N points")
    p.add_argument("--b", help="compact polyhedral codomain expression")
    p.add_argument("--chib", type=int, help="symbolic codomain Euler measure")
    p.add_argument("--pairs", action="store_true", help="distinct unordered map pairs")

    p = sub.add_parser("fib", parents=[common, series_opts], help="parity-constrained subsets")
    p.add_argument("set")

    p = sub.add_parser("verify", parents=[common], help="run the invariant suites")
    p.add_argument("--scope", default="all", help="module name or 'all'")

    return parser


def _emit(text: str, stream) -> None:
    """Print text; a reader that closed the pipe early ends the output quietly."""
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:
        # Send what is left to /dev/null so the flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def main(argv=None) -> int:
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact values may have any number of digits
    try:
        parser = build_parser()
        namespace = parser.parse_args(argv)
        options = {k: v for k, v in vars(namespace).items() if k not in ("verb", "json")}
        try:
            report = run(Command(namespace.verb, options))
        except EulerMeasureError as exc:
            if namespace.json:
                error = {"class": exc.cli_class, "message": str(exc)}
                _emit(json.dumps({"schema": SCHEMA_VERSION, "error": error}, indent=2), sys.stdout)
            else:
                _emit(f"error [{exc.cli_class}]: {exc}", sys.stderr)
            return exc.exit_code
        _emit(report.to_json() if namespace.json else report.to_text(), sys.stdout)
        return report.exit_status
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
