"""Shared caps: brute-force oracles, the series length and the gizmo size.

DEFAULT_ENUM_CAP bounds the exhaustive enumerations that serve as test
oracles (gizmo_support_census, brute_map_count, map_pair_count); each
takes an explicit cap argument with this default.  No CLI verb
enumerates, so none reaches it.  The series ceiling MAX_TERMS is fixed:
it sits above the default window of every documented input (terms =
max(4d - 2, 2d + 1) for order bound d) and is checked before any
coefficient is counted.  fib's bound is the length of the polynomial it
counts, which it walks in O(pieces) before the count (2000 points:
terms 8002).  It also bounds the selection size of choose.

The gizmo ceiling MAX_GIZMO_BITS is fixed too.  A gizmo with selection
sizes k_i over a set of measure chi fits J = prod(k_i) exponentials
(2^j - 1)^k; its size is max(-chi, 1) * J(J+1)/2, the bit size of the
larger of two denominators, prod_j (1 + (2^j - 1)t)^(-chi) of the series
and prod_j (2^j - 1) of the exponential fit.  Past J = 60 the bases
2^j - 1 vanish or repeat modulo the first fit prime 2^61 - 1, so a
series with chi < 0 falls back to the Fraction engine, which does not
finish: gizmo "(0,1)" --ks 60 takes 0.4 s, and --ks 61 or 8,8 still
runs after 40 s.  Near 3,900 bits the lift also runs out of its 64
primes.  The ceiling is the size of --ks 60 on (0,1); it is checked
before the support counts.
"""

import math

from .errors import ResourceLimitError

DEFAULT_ENUM_CAP = 10_000_000
MAX_TERMS = 10_000
MAX_GIZMO_BITS = 60 * 61 // 2


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
