"""Shared ceilings: brute-force oracles, the series length and the gizmo size.

MAX_ENUMERATION bounds every exhaustive enumeration, the test oracles of
the closed-form counts: the placements behind choose_cells,
parity_strata_coefficient and verify's gap lemma, set and integer
partitions, the gizmo census, value sequences of maps and verify's
subsets of points.  Each computes its size in entries, candidates times
the length of each, and calls check_enumeration before it builds its
first candidate; the refusal names the closed form that counts without
enumerating.  The ceiling is read at call time, so a test may lower it.
tools/oracle_scaling.py measures every oracle up to it: the costliest
call it admits there, choose_cells on 12 open intervals at k = 13
(3.0e7 entries), took 14 s and 575 MB of peak RSS (Python 3.11, 2-core
machine), and it admits map_pair_count(3, 6), 2.1e7 entries, the largest
enumeration the tests make.  No CLI verb enumerates, so none reaches it.

The series ceiling MAX_TERMS is fixed: it sits above the default window
of every documented input (terms = 2d - 1 for order bound d, the most a
certificate needs; see exact_series.series_window), and is checked
before the closed form is built or any coefficient counted
(exact_series.regularize).  fib's bound is the length of its
polynomial, found in O(pieces) (2000 points: terms 4001; from 5000
points on the window is above the ceiling).  It also bounds the
selection size of choose.

The gizmo ceiling MAX_GIZMO_BITS is fixed too.  A gizmo with selection
sizes k_i over a set of measure chi has J = prod(k_i) exponential bases
2^j - 1; its size is max(-chi, 1) * J(J+1)/2, the bit size of the larger
of two denominators, prod_j (1 + (2^j - 1)t)^(-chi) of its closed form
and prod_j (2^j - 1) of the exponential fit.  gizmo reads its weights
off the iterated binomial polynomial and runs no fit, so the second
denominator is on no CLI path any more; the fit is an oracle.  The
ceiling is the size of --ks 60 on (0,1); it is checked before the
support counts.  It was set
for a coprimality proof by Euclid modulo 2^61 - 1, which failed from
J = 61 on.  That proof is gone: closed forms are
exact_series.FactoredForm records, reduced by construction, and a
RationalFunction is reduced by one integer gcd, so the ceiling has lost
its reason; it is kept unchanged until a scaling run of the counts and
the certificate sets a ceiling for every verb (ROADMAP item 2).
"""

import math

from .errors import ResourceLimitError

MAX_ENUMERATION = 30_000_000
MAX_TERMS = 10_000
MAX_GIZMO_BITS = 60 * 61 // 2


def check_enumeration(entries: int, what: str) -> None:
    """Refuse an enumeration of more than MAX_ENUMERATION entries; what
    names it and the closed form that counts it instead."""
    if entries > MAX_ENUMERATION:
        raise ResourceLimitError(
            f"{what}: {entries} entries or more, above the enumeration ceiling "
            f"of {MAX_ENUMERATION}"
        )


def check_terms(terms: int, default_for: int | None = None) -> int:
    """terms itself, refused when it lies above the fixed series ceiling;
    ``default_for`` is the order bound a default terms was derived from."""
    if terms > MAX_TERMS:
        origin = "" if default_for is None else f" (the default for order bound {default_for})"
        raise ResourceLimitError(
            f"terms {terms}{origin} exceeds the ceiling of {MAX_TERMS} series coefficients"
        )
    return terms


def check_selection_size(k: int) -> int:
    """k itself, refused above MAX_TERMS before any cell is counted."""
    if k > MAX_TERMS:
        raise ResourceLimitError(f"-k {k} exceeds the ceiling of {MAX_TERMS}; use a smaller -k")
    return k


def check_gizmo_size(chi: int, ks: tuple[int, ...]) -> None:
    """Refuse a gizmo whose size (see the module docstring) exceeds MAX_GIZMO_BITS."""
    j_dim = math.prod(ks)
    bits = max(-chi, 1) * j_dim * (j_dim + 1) // 2
    if bits > MAX_GIZMO_BITS:
        raise ResourceLimitError(
            f"--ks {','.join(map(str, ks))} (J = {j_dim}) on a set of measure {chi} needs "
            f"{bits}-bit denominators, above the ceiling of {MAX_GIZMO_BITS}; use smaller --ks"
        )
