"""Command-line front end.

Subcommands: measure, choose, powerset, gizmo, mapspace, fib, verify.
Every exact value is printed as a "p/q" string, never a float; --json
emits one JSON object (schema 1) per invocation.  Reported values carry
the label of the route that produced them; every regularized value comes
with its "routes", which the library has already compared (a
disagreement exits 5 before any report exists), so no check repeats it.

Each verb is an entry of ``_VERBS``.  A set verb's builder returns only
its own inputs, results and checks (``choose`` alone has one), laying
out a ``Regularized`` record through ``_regularized``; ``_frame`` parses
``set`` once, puts ``set`` and ``canonical`` first and builds the
report.  ``verify`` takes no set and builds its own.  The exit status is
1 when a check failed, else 0.

Set expressions follow the grammar in setparse; operator binding from
tightest to loosest is ``!``, ``&``, ``\\``, ``u``/``|``.

The argument parser is built once per process, on the first call of
``main``, and reused: ``parse_args`` keeps no state between calls, so a
later call sees none of an earlier call's options.

A verb loads only the library modules it runs, since a CLI call is a
fresh process whose cost is mostly its imports.  Importing ``cli``
executes ``cli`` and ``errors``; every other module the verbs call is
registered by ``_lazy`` and executes on the first read of one of its
attributes, when a handler calls ``setparse.parse_set_expression`` and
so on.  Handlers read those attributes at call time, so a patched module
attribute reaches them.  ``measure`` executes ``setparse``,
``interval_sets`` and ``rationals``; ``choose`` adds ``limits``,
``choose_construction`` and ``partition_combinatorics``; ``powerset``,
``gizmo``, ``mapspace`` and ``fib`` add their construction module and
``exact_series`` instead.  Only ``verify`` executes ``verify``, which
imports every module.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import sys
from dataclasses import dataclass, field

from .errors import EulerMeasureError, InputError, UnsupportedDomainError


def _lazy(name: str):
    """The package's module ``name``, registered in ``sys.modules`` and as
    an attribute of the package the way an import binds it, but executed
    only on its first attribute read (``importlib.util.LazyLoader``).  A
    module already imported is returned as it is."""
    qualified = f"{__package__}.{name}"
    module = sys.modules.get(qualified)
    if module is None:
        spec = importlib.util.find_spec(qualified)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[qualified] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


choose_construction = _lazy("choose_construction")
exact_series = _lazy("exact_series")
fibonacci_subsets = _lazy("fibonacci_subsets")
interval_sets = _lazy("interval_sets")
limits = _lazy("limits")
map_spaces = _lazy("map_spaces")
partition_combinatorics = _lazy("partition_combinatorics")
power_gizmos = _lazy("power_gizmos")
setparse = _lazy("setparse")
verify = _lazy("verify")

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

    @property
    def exit_status(self) -> int:
        """1 when a check in the report failed, else 0."""
        return int(any(check["status"] == "fail" for check in self.checks))

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
            return [f"{key} ({value['grading']}): {shown}",
                    f"  closed form: {value['closed_form']['text']}"]
        flat = ", ".join(f"{k}={v}" for k, v in value.items())
        return [f"{key}: {flat}"]
    if isinstance(value, list):
        return [f"{key}: " + ", ".join(str(x) for x in value)]
    return [f"{key}: {value}"]


def _labeled(value, route: str) -> dict:
    return {"value": str(value), "route": route}


def _chi(a: interval_sets.PolyhedralSet1D) -> dict:
    return _labeled(a.euler_measure(), "piece-count")


def _rf_dict(rf: exact_series.RationalFunction) -> dict:
    return {
        "numerator": [str(c) for c in rf.numerator.coefficients],
        "denominator": [str(c) for c in rf.denominator.coefficients],
        "text": rf.text(),
    }


def _check_entry(name: str, passed: bool, detail: str = "") -> dict:
    entry = {"name": name, "status": "ok" if passed else "fail"}
    if detail:
        entry["detail"] = detail
    return entry


def _regularized(results: dict, res: exact_series.Regularized, route: str, **trailing) -> dict:
    """A construction's results: the given results, then its series, its
    value labelled with route, its routes and the trailing fields."""
    prefix = res.series.prefix
    return results | {
        "series": {
            "grading": prefix.grading,
            "coefficients": [str(c) for c in prefix.coefficients],
            "closed_form": _rf_dict(res.series.closed_form),
        },
        "value": _labeled(res.value, route),
        "routes": {label: str(value) for label, value in res.routes.items()},
        **trailing,
    }


def _require_unit_domain(a: interval_sets.PolyhedralSet1D, what: str):
    pieces = a.pieces
    ok = (
        len(pieces) == 1
        and isinstance(pieces[0], interval_sets.OpenInterval)
        and pieces[0].left.is_finite
        and pieces[0].right.is_finite
    )
    if not ok:
        raise UnsupportedDomainError(
            f"{what} needs a single bounded open interval as its domain, got {a}"
        )


# -- verb builders: (set, options) -> (inputs, results, checks) ---------


def _measure(a: interval_sets.PolyhedralSet1D, options: dict):
    cls = a.classify()
    results = {
        "euler_measure": _chi(a),
        "classification": {
            "finite": cls.finite,
            "cardinality": cls.cardinality,
            "compact": cls.compact,
            "components": len(cls.components),
            "has_isolated_points": cls.has_isolated_points,
        },
    }
    return {}, results, []


def _choose(a: interval_sets.PolyhedralSet1D, options: dict):
    k = limits.check_selection_size(int(options["k"]))
    counts = choose_construction.cell_counts(a, k)
    measure = sum(-n if d % 2 else n for d, n in counts.items())
    chi = a.euler_measure()
    binom = partition_combinatorics.integer_binomial(chi, k)
    results = {
        "euler_measure": _labeled(chi, "piece-count"),
        "measure": _labeled(measure, "cell-enumeration"),
        "binomial": _labeled(binom, "generalized-binomial"),
    }
    if options.get("cells"):
        results["cells"] = {
            "dimension_counts": {str(d): n for d, n in sorted(counts.items())},
            "total": sum(counts.values()),
        }
    return {"k": str(k)}, results, [_check_entry("binomial-identity", measure == binom)]


def _powerset(a: interval_sets.PolyhedralSet1D, options: dict):
    ps = power_gizmos.powerset_series(a, options.get("terms"))
    return {}, _regularized({"euler_measure": _chi(a)}, ps, "binomial-closed-form"), []


def _gizmo(a: interval_sets.PolyhedralSet1D, options: dict):
    spec = power_gizmos.GizmoSpec(tuple(options["ks"]))
    res = power_gizmos.gizmo_measure(a, spec, options.get("terms"))
    results = {
        "ks": list(spec.ks),
        "euler_measure": _chi(a),
        "support_counts": [str(n) for n in res.counts],
    }
    fit = {"bases": list(res.fit.bases), "weights": [str(w) for w in res.fit.weights]}
    inputs = {"ks": ",".join(str(k) for k in spec.ks)}
    return inputs, _regularized(results, res, "exponential-fit", fit=fit), []


def _mapspace(a: interval_sets.PolyhedralSet1D, options: dict):
    modes = [name for name in ("finite", "b", "chib") if options.get(name) is not None]
    if len(modes) != 1:
        raise InputError("choose exactly one of --finite N, --b SET, --chib N")
    terms = options.get("terms")
    inputs = {"mode": modes[0]}
    results = {}

    if options.get("pairs"):
        if modes != ["finite"]:
            raise InputError("--pairs is only defined for --finite codomains")
        _require_unit_domain(a, "the distinct-pair map space")
        bsize = int(options["finite"])
        res = map_spaces.map_pair_measure(bsize, terms)
        inputs["pairs"] = "true"
        results |= {"codomain_size": bsize, "pair_counts": [str(n) for n in res.counts]}
    elif modes == ["finite"]:
        bsize = int(options["finite"])
        res = map_spaces.hedral_map_measure(a, bsize, terms)
        inputs["finite"] = str(bsize)
        results |= {
            "codomain_size": bsize,
            "euler_measure": _chi(a),
            "breakpoint_counts": [str(n) for n in res.counts],
        }
    else:
        _require_unit_domain(a, "the piecewise-affine map space")
        if modes == ["b"]:
            codomain = setparse.parse_set_expression(options["b"])
            chi_b = map_spaces.affine_pair_space(codomain).measure
            inputs["b"] = options["b"]
            results |= {
                "codomain": str(codomain),
                "affine_space_measure": _labeled(chi_b, "cell-enumeration"),
            }
        else:
            chi_b = int(options["chib"])
            inputs["chib"] = str(options["chib"])
        res = map_spaces.schanuel_measure(chi_b, terms)
        results |= {
            "codomain_measure": _labeled(chi_b, "component-count"),
            "subset_breakpoint_counts": [str(chi_b ** (2 * k + 1)) for k in range(len(res.counts))],
            "breakpoint_counts": [str(n) for n in res.counts],
        }
    return inputs, _regularized(results, res, "breakpoint-series"), []


def _fib(a: interval_sets.PolyhedralSet1D, options: dict):
    res = fibonacci_subsets.fibonacci_measure(a, options.get("terms"))
    expected = _labeled(res.expected, "extended-recurrence")
    results = _regularized({"euler_measure": _chi(a)}, res, "series-regularization",
                           expected_fibonacci=expected)
    return {}, results, []


def _frame(build):
    """The verb that reports build over the command's set: it parses
    ``set`` once, passes it with the options to build, and puts ``set``
    and ``canonical`` before the inputs and results build returns."""

    def verb(command: Command) -> Report:
        text = command.options.get("set")
        if not text:
            raise InputError("missing set expression")
        a = setparse.parse_set_expression(text)
        inputs, results, checks = build(a, command.options)
        return Report(command.verb, {"set": text} | inputs, {"canonical": str(a)} | results, checks)

    return verb


def _verify(command: Command) -> Report:
    scope = command.options.get("scope", "all")
    outcomes = verify.run_verify(scope)
    checks = [
        _check_entry(f"{r.scope}.{r.name}", r.passed, r.detail) | {"ms": r.ms} for r in outcomes
    ]
    results = {
        "checks_run": len(outcomes),
        "failures": sum(not r.passed for r in outcomes),
    }
    return Report("verify", {"scope": scope}, results, checks)


_VERBS = {
    "measure": _frame(_measure),
    "choose": _frame(_choose),
    "powerset": _frame(_powerset),
    "gizmo": _frame(_gizmo),
    "mapspace": _frame(_mapspace),
    "fib": _frame(_fib),
    "verify": _verify,
}


def run(command: Command) -> Report:
    """Dispatch a validated command to its verb and build the report."""
    verb = _VERBS.get(command.verb)
    if verb is None:
        raise InputError(f"unknown command {command.verb!r}")
    return verb(command)


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
        help="index of the last series coefficient shown (default: L+d-1, the certificate: "
        "L+d coefficients for the closed form's order L and the construction's order bound d)",
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
