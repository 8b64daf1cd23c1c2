"""Each CLI verb executes only the library modules it uses, and the
package's exports resolve on access.

``cli`` registers the library modules with ``importlib.util.LazyLoader``:
a registered module sits in ``sys.modules`` as a ``_LazyModule`` until
its first attribute read executes it.  The checks run in fresh child
processes and list the ``eulermeasure`` modules that executed;
``-X importtime`` would miss a lazy module's execution.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import eulermeasure

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EXECUTED = """
import importlib.util, json, sys
{body}
print(json.dumps(sorted(
    name for name, module in sys.modules.items()
    if name.split(".")[0] == "eulermeasure"
    and not isinstance(module, importlib.util._LazyModule))))
"""

VERB_ARGV = {
    "measure": ["measure", "(0,1) u {2}"],
    "choose": ["choose", "(0,1)", "-k", "2"],
    "powerset": ["powerset", "(0,1)"],
    "gizmo": ["gizmo", "(0,1)", "--ks", "2"],
    "mapspace": ["mapspace", "(0,1)", "--finite", "2"],
    "fib": ["fib", "{0,1,2}"],
    "verify": ["verify", "--scope", "cli"],
}


def executed(body: str) -> set[str]:
    """The eulermeasure modules that executed in a fresh process running body."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run([sys.executable, "-c", EXECUTED.format(body=body)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_package_import_executes_nothing_else():
    assert executed("import eulermeasure") == {"eulermeasure"}


def test_setup_probe_executes_cli_and_errors_only():
    probe = "import eulermeasure.cli as c; c.build_parser()"
    assert executed(probe) == {"eulermeasure", "eulermeasure.cli", "eulermeasure.errors"}


def test_measure_executes_the_parser_and_the_set_kernel_only():
    # no construction module, no exact_series and no verify
    got = executed(f"from eulermeasure import cli; cli.main({VERB_ARGV['measure']!r})")
    assert got == {"eulermeasure", "eulermeasure.cli", "eulermeasure.errors",
                   "eulermeasure.setparse", "eulermeasure.interval_sets",
                   "eulermeasure.rationals"}


@pytest.mark.parametrize("verb", VERB_ARGV)
def test_only_the_verify_verb_executes_verify(verb):
    got = executed(f"from eulermeasure import cli; assert cli.main({VERB_ARGV[verb]!r}) == 0")
    assert ("eulermeasure.verify" in got) == (verb == "verify")


def test_a_lazy_module_is_the_imported_module():
    # importing a registered module executes it and gives the same object,
    # bound on the package as an import binds it
    got = executed("from eulermeasure import cli\n"
                   "import eulermeasure.power_gizmos\n"
                   "p = eulermeasure.power_gizmos\n"
                   "assert p is cli.power_gizmos is sys.modules['eulermeasure.power_gizmos']\n"
                   "assert p.gizmo_measure is eulermeasure.gizmo_measure")
    assert "eulermeasure.power_gizmos" in got and "eulermeasure.verify" not in got


# -- the package's exports ------------------------------------------------

EXPORTS = {
    "choose_cells", "ordered_distinct_measure", "EulerMeasureError", "fibonacci_measure",
    "PolyhedralSet1D", "affine_pair_space", "hedral_map_measure", "map_pair_measure",
    "schanuel_measure", "GizmoSpec", "gizmo_measure", "powerset_series",
    "parse_set_expression",
}


def test_all_lists_the_exports():
    assert len(eulermeasure.__all__) == len(EXPORTS) == 13
    assert set(eulermeasure.__all__) == EXPORTS


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_export_is_the_submodule_object(name):
    value = getattr(eulermeasure, name)
    assert value.__module__.startswith("eulermeasure.")
    assert value is getattr(sys.modules[value.__module__], name)
    assert name in dir(eulermeasure)


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from eulermeasure import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(eulermeasure.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        eulermeasure.no_such_name
    assert not hasattr(eulermeasure, "__no_such_dunder__")
    with pytest.raises(ImportError):
        exec("from eulermeasure import no_such_name", {})


# -- tools/cli_startup.py -------------------------------------------------


def test_cli_startup_tool_runs():
    before = sorted(p for p in SRC.rglob("*") if "__pycache__" in p.parts)
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "cli_startup.py"), "--runs", "2"],
                         capture_output=True, text=True, timeout=300, check=True)
    report = json.loads(out.stdout)
    names = ["interpreter", "setup_probe", *VERB_ARGV]
    assert report["runs"] == 2 and list(report["cases"]) == names
    for state in ("inherited", "compiled"):
        assert list(report["median_ms"][state]) == names
        assert all(ms > 0 for ms in report["median_ms"][state].values())
    # neither state writes bytecode into the checkout
    assert sorted(p for p in SRC.rglob("*") if "__pycache__" in p.parts) == before
