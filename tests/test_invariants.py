"""Every invariant check registered in eulermeasure.verify, one test each.

An invariant is written once, in ``verify.CHECKS``; ``eulermeasure verify``
and this module run the same functions.  A failing check's counterexample
is the asserted value.
"""

import pytest

from eulermeasure.verify import CHECKS


def test_registry_names_are_unique():
    keys = [(scope, name) for scope, name, _ in CHECKS]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize(
    "check", [fn for _, _, fn in CHECKS], ids=[f"{scope}.{name}" for scope, name, _ in CHECKS]
)
def test_invariant(check):
    assert check() is None
