"""Exact Euler measures of one-dimensional polyhedral sets.

The library computes the combinatorial Euler measure (a valuation, not
a homotopy invariant) of finite unions of rational points and open
intervals, and the regularized Euler measures of derived infinite
objects: small power sets, iterated subset-selection gizmos, map spaces
graded by breakpoints, and parity-constrained subset families.  All
arithmetic is exact; every regularized value is cross-validated against
an independent route before it is reported.
"""

from .choose_construction import choose_cells, ordered_distinct_measure
from .errors import EulerMeasureError
from .fibonacci_subsets import fibonacci_measure
from .interval_sets import PolyhedralSet1D
from .map_spaces import affine_pair_space, hedral_map_measure, map_pair_measure, schanuel_measure
from .power_gizmos import GizmoSpec, gizmo_measure, powerset_series
from .setparse import parse_set_expression

__version__ = "0.1.0"
