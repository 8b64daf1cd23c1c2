"""Which program functions the traced run wraps, and the per-layer metrics.

Layers are the program's modules.  Each metric below names a boundary
the benchmark can see from outside: a public function's span (calls and
self time) or a counter derived from its arguments or result.  Times
and counts are totals per cycle of the workload (see workloads.py), so
they do not depend on how many cycles fit in a run.
"""

from __future__ import annotations

import re
from collections import defaultdict

from tracer import END, ERROR, NAME, QUERY, START, Target

LAYERS = (
    "cli",
    "setparse",
    "interval_sets",
    "exact_series",
    "partition_combinatorics",
    "choose_construction",
    "power_gizmos",
    "map_spaces",
    "fibonacci_subsets",
    "verify",
)

SCOPES = (
    "interval_sets",
    "exact_series",
    "partition_combinatorics",
    "choose_construction",
    "power_gizmos",
    "map_spaces",
    "fibonacci_subsets",
    "cli",
)

FAILURE_CLASSES = ("input", "resource", "regularization", "internal", "traceback", "timeout")

_INTERVAL_LITERAL = re.compile(r"[(\[]\s*[-+]?(?:\d|inf)")
_POINT_SET = re.compile(r"\{([^}]*)\}")


def literal_count(text: str) -> int:
    """Interval literals plus the points listed in point-set literals."""
    points = sum(len([v for v in body.split(",") if v.strip()])
                 for body in _POINT_SET.findall(text))
    return len(_INTERVAL_LITERAL.findall(text)) + points


# -- counter hooks ------------------------------------------------------


def _parse_input(c, args, kwargs):
    c["setparse.input_pieces"] += literal_count(args[0])


def _result_pieces(c, args, kwargs, result):
    c["interval_sets.result_pieces"] += len(result.pieces)


def _prefix_in(c, args, kwargs):
    coeffs = args[0].coefficients
    c["exact_series.prefix_terms.sum"] += len(coeffs)
    bits = max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in coeffs)
    c["exact_series.coeff_bits.max"] = max(c["exact_series.coeff_bits.max"], bits)


def _fitted(c, args, kwargs, series):
    order = series.recurrence.order
    c["exact_series.recurrence_order.max"] = max(c["exact_series.recurrence_order.max"], order)
    c["exact_series.prefix_use_ratio.needed_terms"] += 2 * order + 2
    c["exact_series.prefix_use_ratio.supplied_terms"] += len(series.prefix)


def _partitions(c, args, kwargs, result):
    c["partition_combinatorics.partitions"] += len(result)


def _cells(c, args, kwargs, result):
    c["choose_construction.cells"] += len(result.dimensions)


def _maps_enumerated(c, args, kwargs):
    bsize, k = args[0], args[1]
    c["map_spaces.maps_enumerated"] += bsize ** (2 * k + 1)


def _placement(c, args, kwargs, gaps):
    c["fibonacci_subsets.placements"] += 1
    if all(g % 2 == 0 for g in gaps):
        c["fibonacci_subsets.valid_placements"] += 1


def _checks_run(c, args, kwargs, result):
    c["verify.checks_run"] += len(result)


def targets() -> list[Target]:
    em = "eulermeasure."
    iv_cls = em + "interval_sets:PolyhedralSet1D"
    out = [
        Target(em + "cli", "main", "cli.main"),
        Target(em + "cli:Report", "to_json", "cli.render.to_json"),
        Target(em + "cli:Report", "to_text", "cli.render.to_text"),
        Target(em + "setparse", "parse_set_expression", "setparse.parse_set_expression",
               before=_parse_input),
    ]
    for op in ("union", "intersect", "difference", "complement"):
        out.append(Target(iv_cls, op, "interval_sets.boolean_op." + op, after=_result_pieces))
    out += [
        Target(em + "interval_sets", "combine", "interval_sets.boolean_op.combine"),
        Target(em + "interval_sets", "complement", "interval_sets.boolean_op.complement_fn"),
        Target(iv_cls, "from_pieces", "interval_sets.construct.from_pieces"),
        Target(em + "interval_sets", "canonicalize", "interval_sets.construct.canonicalize"),
        Target(em + "interval_sets", "points", "interval_sets.construct.points"),
        Target(em + "interval_sets", "segment", "interval_sets.construct.segment"),
        Target(em + "interval_sets", "open_interval", "interval_sets.construct.open_interval"),
        Target(iv_cls, "classify", "interval_sets.classify.method"),
        Target(em + "interval_sets", "classify", "interval_sets.classify.function"),
        Target(em + "exact_series", "continue_series", "exact_series.continue_series",
               before=_prefix_in, after=_fitted),
        Target(em + "exact_series", "min_recurrence", "exact_series.min_recurrence"),
        Target(em + "exact_series", "to_rational_function", "exact_series.to_rational_function"),
        Target(em + "exact_series", "eval_at_one", "exact_series.eval_at_one"),
        Target(em + "exact_series", "binomial_prefix", "exact_series.binomial_prefix"),
        Target(em + "partition_combinatorics", "partitions_of",
               "partition_combinatorics.partitions_of", after=_partitions),
        Target(em + "partition_combinatorics", "gen_binomial",
               "partition_combinatorics.gen_binomial"),
        Target(em + "partition_combinatorics", "iterated_binomial",
               "partition_combinatorics.iterated_binomial"),
        Target(em + "choose_construction", "choose_cells", "choose_construction.choose_cells",
               after=_cells),
        Target(em + "choose_construction", "ordered_distinct_measure",
               "choose_construction.ordered_distinct_measure"),
        Target(em + "power_gizmos", "gizmo_measure", "power_gizmos.gizmo_measure"),
        Target(em + "power_gizmos", "gizmo_fit", "power_gizmos.gizmo_fit"),
        Target(em + "power_gizmos", "gizmo_support_count", "power_gizmos.gizmo_support_count"),
        Target(em + "power_gizmos", "support_count_table", "power_gizmos.support_count_table"),
        Target(em + "power_gizmos", "powerset_series", "power_gizmos.powerset_series"),
        Target(em + "power_gizmos", "iterated_binomial_polynomial",
               "power_gizmos.iterated_binomial_polynomial"),
        Target(em + "power_gizmos", "gizmo_support_census", "power_gizmos.gizmo_support_census"),
        Target(em + "map_spaces", "map_pair_measure", "map_spaces.map_pair_measure"),
        Target(em + "map_spaces", "map_pair_count", "map_spaces.map_pair_count",
               before=_maps_enumerated),
        Target(em + "map_spaces", "finite_map_count", "map_spaces.finite_map_count"),
        Target(em + "map_spaces", "hedral_map_measure", "map_spaces.closed_form.hedral"),
        Target(em + "map_spaces", "schanuel_measure", "map_spaces.closed_form.schanuel"),
        Target(em + "map_spaces", "affine_pair_space", "map_spaces.closed_form.affine"),
        Target(em + "fibonacci_subsets", "fibonacci_measure", "fibonacci_subsets.fibonacci_measure"),
        Target(em + "fibonacci_subsets", "parity_strata_coefficient",
               "fibonacci_subsets.parity_strata_coefficient"),
        Target(em + "fibonacci_subsets", "placement_gap_measures",
               "fibonacci_subsets.placement_gap_measures", after=_placement, span=False),
        Target(em + "verify", "run_verify", "verify.run_verify", after=_checks_run),
    ]
    return out


# -- aggregation ----------------------------------------------------------

# Per-layer metric -> the span names whose self time (or calls) it sums; a
# name ending in '.' stands for every span name under it.
_SELF_MS = {
    "cli.main.self_ms": ("cli.main",),
    "cli.render.self_ms": ("cli.render.",),
    "setparse.parse_set_expression.self_ms": ("setparse.parse_set_expression",),
    "interval_sets.boolean_op.self_ms": ("interval_sets.boolean_op.",),
    "interval_sets.construct.self_ms": ("interval_sets.construct.",),
    "interval_sets.classify.self_ms": ("interval_sets.classify.",),
    "exact_series.min_recurrence.self_ms": ("exact_series.min_recurrence",),
    "exact_series.to_rational_function.self_ms": ("exact_series.to_rational_function",),
    "partition_combinatorics.partitions_of.self_ms": ("partition_combinatorics.partitions_of",),
    "choose_construction.choose_cells.self_ms": ("choose_construction.choose_cells",),
    "choose_construction.ordered_distinct_measure.self_ms":
        ("choose_construction.ordered_distinct_measure",),
    "power_gizmos.gizmo_measure.self_ms": ("power_gizmos.gizmo_measure",),
    "power_gizmos.gizmo_fit.self_ms": ("power_gizmos.gizmo_fit",),
    "power_gizmos.gizmo_support_count.self_ms": ("power_gizmos.gizmo_support_count",),
    "map_spaces.map_pair_count.self_ms": ("map_spaces.map_pair_count",),
    "map_spaces.closed_form.self_ms": ("map_spaces.closed_form.",),
    "fibonacci_subsets.parity_strata_coefficient.self_ms":
        ("fibonacci_subsets.parity_strata_coefficient",),
}
_CALLS = {
    "cli.main.calls": ("cli.main",),
    "setparse.parse_set_expression.calls": ("setparse.parse_set_expression",),
    "interval_sets.boolean_op.calls": ("interval_sets.boolean_op.",),
    "exact_series.continue_series.calls": ("exact_series.continue_series",),
    "power_gizmos.gizmo_support_count.calls": ("power_gizmos.gizmo_support_count",),
    "fibonacci_subsets.parity_strata_coefficient.calls":
        ("fibonacci_subsets.parity_strata_coefficient",),
}
_COUNTERS = {
    "setparse.input_pieces": "count",
    "interval_sets.result_pieces": "count",
    "exact_series.prefix_terms.sum": "count",
    "exact_series.prefix_use_ratio.needed_terms": "count",
    "exact_series.prefix_use_ratio.supplied_terms": "count",
    "partition_combinatorics.partitions": "count",
    "choose_construction.cells": "count",
    "map_spaces.maps_enumerated": "computed-count",
    "fibonacci_subsets.placements": "count",
    "verify.checks_run": "count",
}
# Maxima are not divided by the cycle count.
_MAXIMA = {
    "exact_series.recurrence_order.max": "order",
    "exact_series.coeff_bits.max": "bits",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in a stable order."""
    units = {}
    for name in sorted(set(_CALLS) | set(_SELF_MS) | set(_COUNTERS) | set(_MAXIMA)):
        units[name] = ("count" if name in _CALLS else "ms" if name in _SELF_MS
                       else _COUNTERS.get(name) or _MAXIMA[name])
    units["cli.output_bytes"] = "bytes"
    units["exact_series.prefix_use_ratio"] = "ratio"
    units["exact_series.regularization_failures"] = "count"
    units["fibonacci_subsets.valid_placement_ratio"] = "ratio"
    for scope in SCOPES:
        units[f"verify.scope.{scope}.total_ms"] = "ms"
    for layer in LAYERS:
        units[f"layer_share.{layer}"] = "ratio"
    units["layer_share.outside"] = "ratio"
    for cls in FAILURE_CLASSES:
        units[f"failures.{cls}"] = "count"
    units["failures.share"] = "ratio"
    units["trace.overhead_share"] = "ratio"
    units["trace.query_mean_ms.traced"] = "ms"
    units["trace.query_mean_ms.untraced"] = "ms"
    return units


def _matches(name: str, prefixes) -> bool:
    return any(name == p or (p.endswith(".") and name.startswith(p)) for p in prefixes)


def per_cycle_metrics(tracer, records: list[dict], cycles: int) -> dict[str, float]:
    """Per-layer values from the traced pass, totals divided by ``cycles``.

    Times are rescaled by each query's speed factor, like the end-to-end
    latencies; the layer shares are ratios of raw times."""
    own = tracer.self_times_ns()
    factor = {r["query"]: r["speed_factor"] for r in records}
    scope_of_query = {r["query"]: r["sizes"].get("scope") for r in records}
    scaled_self = defaultdict(float)
    raw_self = defaultdict(int)
    calls = defaultdict(int)
    scope_ms = defaultdict(float)
    regularization_failures = 0
    for span, self_ns in zip(tracer.spans, own):
        name, scale = span[NAME], factor.get(span[QUERY], 1.0)
        raw_self[name] += self_ns
        scaled_self[name] += self_ns * scale
        calls[name] += 1
        if span[ERROR] == "RegularizationError" and name in (
                "exact_series.continue_series", "exact_series.eval_at_one"):
            regularization_failures += 1
        scope = scope_of_query.get(span[QUERY])
        if name == "verify.run_verify" and scope and span[END] > 0:
            scope_ms[scope] += (span[END] - span[START]) * scale / 1e6

    out: dict[str, float] = {}
    for metric, prefixes in _SELF_MS.items():
        out[metric] = sum(v for n, v in scaled_self.items() if _matches(n, prefixes)) / 1e6
    for metric, prefixes in _CALLS.items():
        out[metric] = sum(v for n, v in calls.items() if _matches(n, prefixes))
    counters = tracer.counters
    for metric in _COUNTERS:
        out[metric] = counters.get(metric, 0)
    out["cli.output_bytes"] = sum(r.get("output_bytes", 0) for r in records)
    out["exact_series.regularization_failures"] = regularization_failures
    for scope in SCOPES:
        out[f"verify.scope.{scope}.total_ms"] = scope_ms.get(scope, 0.0)
    out = {k: v / cycles for k, v in out.items()}

    needed = counters.get("exact_series.prefix_use_ratio.needed_terms", 0)
    supplied = counters.get("exact_series.prefix_use_ratio.supplied_terms", 0)
    out["exact_series.prefix_use_ratio"] = needed / supplied if supplied else 0.0
    placements = counters.get("fibonacci_subsets.placements", 0)
    valid = counters.get("fibonacci_subsets.valid_placements", 0)
    out["fibonacci_subsets.valid_placement_ratio"] = valid / placements if placements else 0.0
    for metric in _MAXIMA:
        out[metric] = counters.get(metric, 0)

    traced_total_ns = sum(r["latency_ms"] for r in records) * 1e6
    layer_ns = defaultdict(int)
    for name, value in raw_self.items():
        layer_ns[name.split(".", 1)[0]] += value
    for layer in LAYERS:
        out[f"layer_share.{layer}"] = layer_ns.get(layer, 0) / traced_total_ns
    out["layer_share.outside"] = 1 - sum(out[f"layer_share.{x}"] for x in LAYERS)
    return out
