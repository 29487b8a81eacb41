"""Convolution products, isotropy groups, block decomposition, Morita checks.

The convolution product of two basis morphisms is their composite, read
from the table by ``InverseCategory.compose`` (None meaning zero).  The
group laws that ``isotropy_group`` takes from the validated category are
checked here by ``oracles.group_law_failure``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from invcat import (
    GroupTable,
    SizeCapExceeded,
    decompose,
    group_iso,
    isotropy_group,
    morita_check,
    restriction_groupoid,
)

from oracles import PARTIAL_BIJECTIONS, brute_dimension, group_law_failure, sub_inverse_monoid


def test_group_law_oracle_flags_a_broken_table():
    # b has no inverse: b·b = b, so nothing multiplies b back to the unit
    broken = GroupTable(
        ("a", "b"),
        {("a", "a"): "a", ("a", "b"): "b", ("b", "a"): "b", ("b", "b"): "b"},
        "a",
        {"a": "a", "b": "b"},
    )
    assert group_law_failure(broken) == ("inverse", "b")
    assert group_law_failure(_cyclic4()) is None
    assert group_law_failure(_klein4()) is None


def _isotropy_groups(ic) -> list[GroupTable]:
    return [isotropy_group(ic, e) for e in ic.idempotents()]


def test_isotropy_groups_satisfy_the_group_laws(t1, z2, g2, i2, iic_point, iic_chain2, iic_antichain2, expansions):
    cats = [t1, z2, g2, i2, iic_point, iic_chain2, iic_antichain2]
    cats += [sz.ic for (label, _), sz in expansions.items() if label == "i2"]
    for ic in cats:
        for group in _isotropy_groups(ic):
            assert group_law_failure(group) is None, (group.unit, group_law_failure(group))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(PARTIAL_BIJECTIONS), max_size=3))
def test_isotropy_groups_of_sub_inverse_monoids_of_i3_satisfy_the_group_laws(gens):
    for group in _isotropy_groups(sub_inverse_monoid(gens)):
        assert group_law_failure(group) is None


def test_isotropy_groups(i2, z2):
    s2 = isotropy_group(i2, "id")
    assert set(s2.elements) == {"id", "swap"}
    assert s2.unit == "id" and s2.order_of("swap") == 2
    assert set(isotropy_group(i2, "id1").elements) == {"id1"}
    cyclic = isotropy_group(z2, "e")
    assert group_iso(s2, cyclic)


def _cyclic4() -> GroupTable:
    elems = ("0", "1", "2", "3")
    table = {(a, b): str((int(a) + int(b)) % 4) for a in elems for b in elems}
    inverse = {a: str((-int(a)) % 4) for a in elems}
    return GroupTable(elems, table, "0", inverse)


def _klein4() -> GroupTable:
    elems = ("e", "x", "y", "z")
    mult = {}
    for a in elems:
        for b in elems:
            if a == "e":
                mult[(a, b)] = b
            elif b == "e":
                mult[(a, b)] = a
            elif a == b:
                mult[(a, b)] = "e"
            else:
                mult[(a, b)] = next(c for c in "xyz" if c not in (a, b))
    return GroupTable(elems, mult, "e", {a: a for a in elems})


def test_group_iso_distinguishes_c4_from_klein():
    assert group_iso(_cyclic4(), _cyclic4())
    assert group_iso(_klein4(), _klein4())
    assert not group_iso(_cyclic4(), _klein4())


def test_group_iso_respects_cap():
    with pytest.raises(SizeCapExceeded):
        group_iso(_cyclic4(), _cyclic4(), cap=2)


def test_dimension_identity_on_fixtures(t1, z2, g2, i2, iic_point, iic_chain2):
    for ic in (t1, z2, g2, i2, iic_point, iic_chain2):
        dec = decompose(ic)
        assert dec.dimension == len(ic.morphisms)
        assert dec.dimension == brute_dimension(ic.cat, ic.inverse)


def test_dimension_identity_on_expansions(expansions):
    for sz in expansions.values():
        dec = decompose(sz.ic)
        assert dec.dimension == len(sz.ic.morphisms)
        assert dec.dimension == brute_dimension(sz.ic.cat, sz.ic.inverse)


def test_i2_block_structure(i2):
    dec = decompose(i2)
    shape = sorted(
        (c.multiplicity, len(c.group.elements)) for c in dec.blocks
    )
    # 7 = 1·1²·1 + 2·1²·... : one point block, one S2 block, one 2×2 block
    assert shape == [(1, 1), (1, 2), (2, 1)]
    assert 7 == sum(c.multiplicity**2 * len(c.group.elements) for c in dec.blocks)


def test_morita_verdicts(t1, z2, g2, i2):
    assert morita_check(i2, i2).certified
    assert morita_check(g2, t1).certified  # same single trivial-group block
    inconclusive = morita_check(z2, t1)
    assert inconclusive.status == "INCONCLUSIVE"
    assert not inconclusive.certified
    assert inconclusive.evidence["unmatched_left"] or inconclusive.evidence[
        "unmatched_right"
    ]
    assert morita_check(z2, g2).status == "INCONCLUSIVE"


def test_morita_merges_same_group_multiplicities(i2, expansions):
    # I2 has two distinct classes with trivial groups (emp and id1/id2); the
    # comparison works on the set of groups, so an expansion with different
    # multiplicities but the same group set still certifies
    verdict = morita_check(
        expansions[("i2", "strict_partial")].ic, expansions[("i2", "strict_global")].ic
    )
    assert verdict.certified
    groups = {pair[2] for pair in verdict.evidence["pairing"]}
    assert groups == {1, 2}


def _mul(ic, a: str | None, b: str | None) -> str | None:
    """Basis product with zero (None) absorbed."""
    if a is None or b is None:
        return None
    return ic.compose(a, b)


def test_convolution_is_associative(t1, z2, g2, i2):
    for ic in (t1, z2, g2, i2):
        for a in ic.morphisms:
            for b in ic.morphisms:
                for c in ic.morphisms:
                    assert _mul(ic, _mul(ic, a, b), c) == _mul(ic, a, _mul(ic, b, c))


def test_convolution_unit_is_sum_of_identities(t1, z2, g2, i2):
    # the algebra unit is the formal sum of all identities: on a basis
    # element exactly one identity acts as left unit (the target's), one as
    # right unit (the source's), and every other identity multiplies to zero
    for ic in (t1, z2, g2, i2):
        identities = set(ic.cat.identity.values())
        for m in ic.morphisms:
            left = [i for i in identities if _mul(ic, i, m) is not None]
            right = [i for i in identities if _mul(ic, m, i) is not None]
            assert left == [ic.cat.identity[ic.cat.tgt[m]]]
            assert right == [ic.cat.identity[ic.cat.src[m]]]
            assert _mul(ic, left[0], m) == m
            assert _mul(ic, m, right[0]) == m


def test_non_composable_products_are_zero(g2, i2):
    assert g2.compose("1Y", "s") == "s"
    assert g2.compose("1X", "s") is None
    assert g2.compose("s", "s") is None
    # the products on the basis pairs are exactly the table: every value is
    # a morphism, and the nonzero pairs are the composable ones
    for ic in (g2, i2):
        products = {(a, b): ic.compose(a, b) for a in ic.morphisms for b in ic.morphisms}
        assert {pair for pair, ab in products.items() if ab is not None} == set(ic.cat.table)
        assert {ab for ab in products.values() if ab is not None} <= set(ic.morphisms)
    assert i2.compose("s12", "s21") == "id2"


def test_group_iso_is_an_equivalence_relation(t1, z2, g2, i2):
    groups = [block.group for ic in (t1, z2, g2, i2) for block in decompose(ic).blocks]
    groups += [_cyclic4(), _klein4()]
    for a in groups:
        assert group_iso(a, a)
    for a in groups:
        for b in groups:
            assert group_iso(a, b) == group_iso(b, a)
    for a in groups:
        for b in groups:
            for c in groups:
                if group_iso(a, b) and group_iso(b, c):
                    assert group_iso(a, c)


def test_dimension_matches_groupoid_size(t1, z2, g2, i2):
    for ic in (t1, z2, g2, i2):
        groupoid = restriction_groupoid(ic)
        assert len(ic.morphisms) == len(groupoid.morphisms) == decompose(ic).dimension
