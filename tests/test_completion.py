"""Idempotent splitting, the invertible core, enlargements, equivalences."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from invcat import (
    Functor,
    NotAFunctor,
    NotASubcategory,
    SizeCapExceeded,
    cauchy_completion,
    completion_inclusion,
    enlargement_check,
    equivalence_check,
    idempotent_classes,
    identity_functor,
    invertible_morphisms,
    isomorphic_objects,
    restriction_groupoid,
    validate_category,
    validate_functor,
)

from invcat.completion import completion_size

from oracles import (
    PARTIAL_BIJECTIONS,
    brute_idempotent_iso_classes,
    brute_isomorphic_objects,
    sub_inverse_monoid,
)


def test_completion_counts(t1, z2, g2, i2):
    expected = {"t1": (1, 1), "z2": (1, 2), "g2": (2, 4), "i2": (4, 34)}
    for label, ic in (("t1", t1), ("z2", z2), ("g2", g2), ("i2", i2)):
        cc = cauchy_completion(ic)
        assert (len(cc.ic.objects), len(cc.ic.morphisms)) == expected[label]
        assert completion_size(ic) == expected[label][1]
        assert validate_category(cc.ic.cat).ok


def test_completion_checks_its_cap_first(i2, iic_chain2):
    assert completion_size(iic_chain2) == len(cauchy_completion(iic_chain2).ic.morphisms)
    with pytest.raises(SizeCapExceeded):
        cauchy_completion(i2, max_elements=33)


def test_completion_splits_every_idempotent(z2, g2, i2):
    for ic in (z2, g2, i2):
        cc = cauchy_completion(ic).ic
        for m in cc.idempotents():
            split = any(
                cc.compose(a, b) == m and cc.cat.is_identity(cc.compose(b, a))
                for a in cc.morphisms
                for b in cc.morphisms
                if cc.cat.composable(a, b) and cc.cat.composable(b, a)
            )
            assert split, m


def test_completion_embedding_is_full_and_faithful(g2, i2):
    for ic in (g2, i2):
        cc = cauchy_completion(ic)
        emb = cc.embedding
        assert validate_functor(emb).ok
        for x in ic.objects:
            for y in ic.objects:
                image_hom = cc.ic.cat.hom(emb.on_obj(x), emb.on_obj(y))
                assert len(image_hom) == len(ic.cat.hom(x, y))
                assert {emb.on_mor(m) for m in ic.cat.hom(x, y)} == set(image_hom)


def test_restriction_groupoid_is_the_invertible_core(t1, z2, g2, i2):
    for ic, size in ((t1, 1), (z2, 2), (g2, 4), (i2, 7)):
        groupoid = restriction_groupoid(ic)
        assert len(groupoid.morphisms) == size
        assert len(invertible_morphisms(groupoid.cat)) == size
        assert validate_category(groupoid.cat).ok


def _with_completions(cats) -> list:
    return [*cats, *(cauchy_completion(ic).ic for ic in cats)]


def _assert_classes_and_isomorphisms_match_oracles(ic) -> None:
    classes = idempotent_classes(ic)
    assert [cls.members for cls in classes] == brute_idempotent_iso_classes(ic.cat, ic.inverse)
    assert all(cls.representative == cls.members[0] for cls in classes)
    assert isomorphic_objects(ic.cat) == brute_isomorphic_objects(ic.cat)


def test_idempotent_classes_match_oracle(t1, z2, g2, i2, iic_chain2, iic_antichain2, expansions):
    cats = [t1, z2, g2, i2, iic_chain2, iic_antichain2]
    cats += [sz.ic for (label, _), sz in expansions.items() if label == "i2"]
    for ic in _with_completions(cats):
        _assert_classes_and_isomorphisms_match_oracles(ic)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(PARTIAL_BIJECTIONS), max_size=3))
def test_classes_and_isomorphisms_of_sub_inverse_monoids_of_i3_match_oracles(gens):
    for ic in _with_completions([sub_inverse_monoid(gens)]):
        _assert_classes_and_isomorphisms_match_oracles(ic)


def test_idempotent_classes_of_i2(i2):
    classes = idempotent_classes(i2)
    data = [(c.representative, c.multiplicity, len(c.group.elements)) for c in classes]
    assert data == [("emp", 1, 1), ("id", 1, 2), ("id1", 2, 1)]


def _t1_into(label: str) -> Functor:
    targets = {
        "z2": ({"*": "*"}, {"1": "e"}),
        "g2": ({"*": "X"}, {"1": "1X"}),
    }
    return targets[label]


def test_enlargement_fails_for_point_in_group(t1, z2):
    objs, mors = _t1_into("z2")
    emb = Functor(t1.cat, z2.cat, objs, mors)
    report = enlargement_check(t1, z2, emb)
    assert report.axiom1 and not report.axiom2 and report.axiom3
    assert "g" in report.witnesses["axiom2"]
    assert not report.overall


def test_enlargement_holds_for_point_in_contractible_groupoid(t1, g2):
    objs, mors = _t1_into("g2")
    emb = Functor(t1.cat, g2.cat, objs, mors)
    report = enlargement_check(t1, g2, emb)
    assert report.overall, report.witnesses
    _, _, inclusion = completion_inclusion(t1, g2, emb)
    assert validate_functor(inclusion).ok
    eq = equivalence_check(inclusion)
    assert eq.faithful and eq.full and eq.essentially_surjective and eq.overall


def test_completion_inclusion_not_full_without_enlargement(t1, z2):
    objs, mors = _t1_into("z2")
    emb = Functor(t1.cat, z2.cat, objs, mors)
    _, _, inclusion = completion_inclusion(t1, z2, emb)
    eq = equivalence_check(inclusion)
    assert eq.faithful and not eq.full
    assert not eq.overall


def test_equivalence_check_requires_a_functor(z2, g2):
    broken = Functor(g2.cat, z2.cat, {"X": "*", "Y": "*"}, {
        "1X": "e", "1Y": "e", "s": "g", "si": "e",
    })
    with pytest.raises(NotAFunctor):
        equivalence_check(broken)


def test_enlargement_rejects_non_injective_embedding(g2):
    collapse = Functor(
        g2.cat, g2.cat, {"X": "X", "Y": "X"}, {m: "1X" for m in g2.morphisms}
    )
    with pytest.raises(NotASubcategory):
        enlargement_check(g2, g2, collapse)


def test_strict_expansion_enlargement_chain(expansions):
    for label in ("z2", "g2", "i2"):
        sub = expansions[(label, "strict_partial")].ic
        sup = expansions[(label, "strict_global")].ic
        emb = Functor(
            sub.cat,
            sup.cat,
            {x: x for x in sub.cat.objects},
            {m: m for m in sub.cat.morphisms},
        )
        report = enlargement_check(sub, sup, emb)
        assert report.overall, (label, report.witnesses)
        _, _, inclusion = completion_inclusion(sub, sup, emb)
        eq = equivalence_check(inclusion)
        assert eq.overall, (label, eq.witnesses)


def test_completing_twice_is_an_equivalence(t1, z2, g2, i2):
    for ic in (t1, z2, g2, i2):
        once = cauchy_completion(ic)
        twice = cauchy_completion(once.ic)
        assert equivalence_check(twice.embedding).overall
    assert equivalence_check(identity_functor(g2.cat)).overall


def test_completion_preserves_and_reflects_inverses(t1, z2, g2, i2):
    for ic in (t1, z2, g2, i2):
        completed = cauchy_completion(ic)
        assert validate_category(completed.ic.cat).ok
        emb = completed.embedding.morphisms
        for s in ic.morphisms:
            assert completed.ic.inv(emb[s]) == emb[ic.inv(s)]
        image = set(emb.values())
        assert {completed.ic.inv(m) for m in image} == image
