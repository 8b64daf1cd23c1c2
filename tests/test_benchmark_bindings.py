"""The library names the perfbench benchmark depends on still exist.

perfbench/layers.py wraps program functions by module and attribute
name, and perfbench/workloads.py reads attributes of construction
results; a rename in the library would break the benchmark silently.
The benchmark's own self-tests run here too, so a library change that
breaks them fails here before a benchmark run aborts on it.
"""

import importlib
import pathlib

import pytest

from eulermeasure.fibonacci_subsets import fibonacci_measure
from eulermeasure.map_spaces import map_pair_measure
from eulermeasure.power_gizmos import GizmoSpec, gizmo_measure, powerset_series
from eulermeasure.setparse import parse_set_expression as parse
from eulermeasure.verify import SCOPES

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers")


def test_every_traced_target_resolves(layers):
    targets = layers.targets()
    assert targets
    for target in targets:
        module_name, _, class_name = target.owner.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
            assert target.attr in vars(owner), f"{target.owner}.{target.attr}"
        else:
            assert callable(getattr(owner, target.attr, None)), f"{target.owner}.{target.attr}"


@pytest.mark.parametrize("module", ["tracer", "oracle"])
def test_benchmark_self_test(module, monkeypatch):
    # run.py calls both before it measures; the tracer's pins one `union`
    # span per 'u' of a parsed chain, each a direct child of the parse span
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module(module).self_test()


def test_benchmarked_scopes_are_the_registry_scopes(layers):
    # the verify workload iterates over this copy; a scope missing there goes unbenchmarked
    assert layers.SCOPES == SCOPES


def test_workloads_module_imports(monkeypatch):
    # its module-level imports name the library modules it calls
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("workloads")


@pytest.mark.parametrize(
    "build,attributes",
    [
        (lambda: gizmo_measure(parse("(0,1)"), GizmoSpec((2,))),
         ("value", "route_exponential", "route_series")),
        (lambda: fibonacci_measure(parse("{0,1}")), ("value", "expected")),
        (lambda: map_pair_measure(2), ("value",)),
        (lambda: powerset_series(parse("(0,1)")), ("value", "series.prefix")),
    ],
    ids=["gizmo", "fib", "map_pairs", "powerset"],
)
def test_result_attributes_read_by_workloads(build, attributes):
    result = build()
    for path in attributes:
        value = result
        for name in path.split("."):
            value = getattr(value, name)
        assert value is not None, path
