"""Exact Euler measures of one-dimensional polyhedral sets.

The library computes the combinatorial Euler measure (a valuation, not
a homotopy invariant) of finite unions of rational points and open
intervals, and the regularized Euler measures of derived infinite
objects: small power sets, iterated subset-selection gizmos, map spaces
graded by breakpoints, and parity-constrained subset families.  All
arithmetic is exact; every regularized value is cross-validated against
an independent route before it is reported.
"""

import importlib

__version__ = "0.1.0"

# Each export and the module that defines it.  A name is read from its
# module on access (PEP 562), so ``import eulermeasure`` runs no module
# and an export is always the module's current object.
_EXPORTS = {
    "choose_cells": "choose_construction",
    "ordered_distinct_measure": "choose_construction",
    "EulerMeasureError": "errors",
    "fibonacci_measure": "fibonacci_subsets",
    "PolyhedralSet1D": "interval_sets",
    "affine_pair_space": "map_spaces",
    "hedral_map_measure": "map_spaces",
    "map_pair_measure": "map_spaces",
    "schanuel_measure": "map_spaces",
    "GizmoSpec": "power_gizmos",
    "gizmo_measure": "power_gizmos",
    "powerset_series": "power_gizmos",
    "parse_set_expression": "setparse",
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
