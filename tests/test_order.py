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

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from invcat import (
    InverseCategory,
    SzCategory,
    join_category,
    natural_leq,
    product_order_leq,
    szendrei,
)

from oracles import brute_natural_order_forms

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

POINTS = range(3)
# every partial bijection of {0, 1, 2}, as the tuple of images (None where
# undefined)
PARTIAL_BIJECTIONS = tuple(
    images
    for images in itertools.product((None, *POINTS), repeat=3)
    if not any(y is not None and images.count(y) > 1 for y in images)
)
IDENTITY = tuple(POINTS)


def _name(p: tuple) -> str:
    return "".join("-" if y is None else str(y) for y in p)


def _compose(g: tuple, f: tuple) -> tuple:
    """g after f."""
    return tuple(None if y is None else g[y] for y in f)


def _inverse(p: tuple) -> tuple:
    return tuple(p.index(x) if x in p else None for x in POINTS)


def sub_inverse_monoid(generators: list[tuple]) -> InverseCategory:
    """The submonoid of I_3 generated by ``generators`` and their inverses."""
    elements = {IDENTITY, *generators, *map(_inverse, generators)}
    frontier = set(elements)
    while frontier:
        new = {_compose(g, f) for g in elements for f in frontier}
        new |= {_compose(f, g) for g in elements for f in frontier}
        frontier = new - elements
        elements |= frontier
    names = {_name(p): p for p in sorted(elements, key=_name)}
    return join_category(
        ["*"],
        {n: ("*", "*") for n in names},
        {"*": _name(IDENTITY)},
        lambda g, f: _name(_compose(names[g], names[f])),
    )


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(PARTIAL_BIJECTIONS), min_size=1, max_size=3))
def test_order_theorems_on_random_sub_inverse_monoids_of_i3(generators):
    monoid = sub_inverse_monoid(generators)
    check_natural_order(monoid)
    for variant in ("strict_partial", "partial"):
        sz = szendrei(monoid, variant)
        check_natural_order(sz.ic)
        check_refinement(sz)
