"""The order theorems behind ``natural_leq`` and ``product_order_leq``.

``natural_leq`` evaluates one characterisation of s ≤ t (s = ss°t), and
``product_order_leq`` is the plain componentwise test.  These tests pin the
two facts that let them stay that simple, against the brute-force
recomputation in oracles.py: in an inverse category the four usual
characterisations of the natural order agree (Lawson, *Inverse Semigroups*,
1998, ch. 1), and the natural order of an expansion refines its product
order.  They run exhaustively on the fixtures and their expansions, and as
property tests on random sub-inverse-monoids of I_3.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from invcat import (
    InverseCategory,
    SzCategory,
    natural_leq,
    product_order_leq,
    szendrei,
)

from oracles import PARTIAL_BIJECTIONS, brute_natural_order_forms, sub_inverse_monoid

FIXTURES = ("t1", "z2", "g2", "i2", "iic_point", "iic_chain2")


def check_natural_order(ic: InverseCategory) -> None:
    """On every parallel pair the four characterisations agree with each
    other and with ``natural_leq``."""
    for (s, t), forms in brute_natural_order_forms(ic.cat, ic.inverse).items():
        assert forms == (natural_leq(ic, s, t),) * 4, (s, t, forms)


def check_refinement(sz: SzCategory) -> None:
    """Every parallel pair in the natural order of the expansion is in the
    product order."""
    for u, v in brute_natural_order_forms(sz.ic.cat, sz.ic.inverse):
        if natural_leq(sz.ic, u, v):
            assert product_order_leq(sz, u, v), (u, v)


@pytest.fixture(scope="module")
def all_expansions(t1, expansions) -> dict[tuple[str, str], SzCategory]:
    """The twelve shared expansions plus the global expansion of t1."""
    return {**expansions, ("t1", "global"): szendrei(t1, "global")}


def test_natural_order_characterisations_agree(request, all_expansions):
    for name in FIXTURES:
        check_natural_order(request.getfixturevalue(name))
    for sz in all_expansions.values():
        check_natural_order(sz.ic)


def test_natural_order_refines_product_order(all_expansions):
    for sz in all_expansions.values():
        check_refinement(sz)


# ---------------------------------------------------------------------------
# random sub-inverse-monoids of I_3


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(PARTIAL_BIJECTIONS), min_size=1, max_size=3))
def test_order_theorems_on_random_sub_inverse_monoids_of_i3(generators):
    monoid = sub_inverse_monoid(generators)
    check_natural_order(monoid)
    for variant in ("strict_partial", "partial"):
        sz = szendrei(monoid, variant)
        check_natural_order(sz.ic)
        check_refinement(sz)
