"""Exact Euler measures of one-dimensional polyhedral sets.

The library computes the combinatorial Euler measure (a valuation, not
a homotopy invariant) of finite unions of rational points and open
intervals, and the regularized Euler measures of derived infinite
objects: small power sets, iterated subset-selection gizmos, map spaces
graded by breakpoints, and parity-constrained subset families.  All
arithmetic is exact; every regularized value is cross-validated against
an independent route before it is reported.
"""

from .choose_construction import (
    CellSketch,
    PlacementDescriptor,
    choose_cells,
    ordered_distinct_measure,
)
from .errors import (
    EulerMeasureError,
    InputError,
    InternalCheckError,
    ParseError,
    RegularizationError,
    ResourceLimitError,
    UnsupportedDomainError,
)
from .exact_series import (
    EulerSeries,
    Polynomial,
    RationalFunction,
    Recurrence,
    SeriesPrefix,
    binomial_prefix,
    continue_series,
    eval_at_one,
    fit_series,
    min_recurrence,
    regularize,
    series_window,
    to_rational_function,
)
from .fibonacci_subsets import (
    extended_fibonacci,
    fibonacci_measure,
    parity_strata_coefficient,
)
from .interval_sets import (
    NEG_INF,
    POS_INF,
    Classification,
    ExtendedRational,
    OpenInterval,
    Piece,
    Point,
    PolyhedralSet1D,
    canonicalize,
    classify,
    combine,
    complement,
    euler_measure,
    ext,
    open_interval,
    points,
    restrict_open,
    segment,
)
from .map_spaces import (
    affine_pair_space,
    finite_map_count,
    hedral_map_measure,
    map_pair_count,
    map_pair_measure,
    schanuel_measure,
)
from .partition_combinatorics import (
    SetPartition,
    falling_factorial,
    gen_binomial,
    iterated_binomial,
    mobius_bottom,
    mobius_by_sizes,
    partition_types,
    partitions_of,
)
from .power_gizmos import (
    ExponentialFit,
    GizmoSpec,
    gizmo_brute_force,
    gizmo_fit,
    gizmo_measure,
    gizmo_support_census,
    gizmo_support_count,
    powerset_series,
)
from .setparse import parse_set_expression, to_expression

__version__ = "0.1.0"
