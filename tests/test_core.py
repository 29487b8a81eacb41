"""Category building, validation, inverse recognition, the natural order."""

from __future__ import annotations

import pytest

from invcat import (
    FiniteCategory,
    Functor,
    NotInverseCategory,
    NotParallel,
    UndeclaredName,
    compose_functors,
    find_inverse_structure,
    generalized_inverses,
    identity_functor,
    inclusion_functor,
    inner_outer,
    invertible_morphisms,
    isomorphic_objects,
    natural_leq,
    relation_classes,
    validate_category,
    validate_functor,
)

from oracles import (
    brute_exactness_violations,
    brute_generalized_inverses,
    brute_idempotents,
    brute_inverse_map,
    brute_natural_leq,
)


def test_build_rejects_undeclared_names():
    with pytest.raises(UndeclaredName):
        FiniteCategory.build(["X"], {"f": ("X", "Y")}, {"X": "f"}, {})
    with pytest.raises(UndeclaredName):
        FiniteCategory.build(["X"], {"f": ("X", "X")}, {"X": "g"}, {})
    with pytest.raises(UndeclaredName):
        FiniteCategory.build(
            ["X"], {"f": ("X", "X")}, {"X": "f"}, {("f", "f"): "h"}
        )


def test_validate_flags_missing_and_spurious_composites():
    # f∘f is left out although f is composable with itself
    cat = FiniteCategory.build(
        ["X"], {"1": ("X", "X"), "f": ("X", "X")},
        {"X": "1"},
        {("1", "1"): "1", ("1", "f"): "f", ("f", "1"): "f"},
    )
    report = validate_category(cat)
    assert not report.ok
    assert "missing-composite" in report.rules()

    # g∘f declared although tgt f ≠ src g
    cat2 = FiniteCategory.build(
        ["X", "Y"],
        {"1X": ("X", "X"), "1Y": ("Y", "Y"), "f": ("X", "Y"), "g": ("X", "Y")},
        {"X": "1X", "Y": "1Y"},
        {
            ("1X", "1X"): "1X", ("1Y", "1Y"): "1Y",
            ("f", "1X"): "f", ("1Y", "f"): "f",
            ("g", "1X"): "g", ("1Y", "g"): "g",
            ("g", "f"): "1X",
        },
    )
    report2 = validate_category(cat2)
    assert not report2.ok
    assert "spurious-composite" in report2.rules()


EXACTNESS_RULES = ("missing-composite", "spurious-composite", "composite-typing")


def _exactness(cat: FiniteCategory) -> list[tuple[str, tuple]]:
    report = validate_category(cat)
    return [(v.rule, v.witness) for v in report.violations if v.rule in EXACTNESS_RULES]


def _tampered(cat: FiniteCategory) -> FiniteCategory:
    """Drop every 7th composite, retype every 5th, and add a composite for
    every 3rd pair that does not compose."""
    table = dict(cat.table)
    for k, ((g, f), h) in enumerate(sorted(cat.table.items())):
        if k % 7 == 0:
            del table[(g, f)]
        elif k % 5 == 0:
            wrong = [m for m in cat.morphisms if (cat.src[m], cat.tgt[m]) != (cat.src[h], cat.tgt[h])]
            if wrong:
                table[(g, f)] = wrong[0]
    loose = [(g, f) for f in cat.morphisms for g in cat.morphisms if not cat.composable(g, f)]
    for g, f in loose[::3]:
        table[(g, f)] = f
    return FiniteCategory(cat.objects, cat.morphisms, cat.src, cat.tgt, cat.identity, table)


def test_exactness_check_matches_all_pairs_oracle(
    t1, z2, g2, i2, t2, iic_point, iic_chain2, expansions
):
    cats = [ic.cat for ic in (t1, z2, g2, i2, iic_point, iic_chain2)] + [t2]
    cats += [sz.ic.cat for sz in expansions.values()]
    for cat in cats:
        assert _exactness(cat) == brute_exactness_violations(cat) == []
    for cat in (g2.cat, iic_chain2.cat, expansions[("g2", "global")].ic.cat, expansions[("i2", "global")].ic.cat):
        bad = _tampered(cat)
        found = _exactness(bad)
        assert found == brute_exactness_violations(bad)
        assert {rule for rule, _ in found} == set(EXACTNESS_RULES)


def test_validate_flags_identity_and_associativity_failures():
    # "identity" that is not neutral: 1∘f redirected to g
    cat = FiniteCategory.build(
        ["X"], {"1": ("X", "X"), "f": ("X", "X"), "g": ("X", "X")},
        {"X": "1"},
        {
            ("1", "1"): "1", ("1", "f"): "g", ("f", "1"): "f",
            ("1", "g"): "g", ("g", "1"): "g",
            ("f", "f"): "1", ("f", "g"): "1", ("g", "f"): "1", ("g", "g"): "1",
        },
    )
    report = validate_category(cat)
    assert not report.ok
    assert any(rule.startswith("identity-neutral") for rule in report.rules())

    # total but non-associative table: the left-zero/right-zero mix
    cat2 = FiniteCategory.build(
        ["X"], {"1": ("X", "X"), "a": ("X", "X"), "b": ("X", "X")},
        {"X": "1"},
        {
            ("1", "1"): "1", ("1", "a"): "a", ("a", "1"): "a",
            ("1", "b"): "b", ("b", "1"): "b",
            ("a", "a"): "1", ("a", "b"): "a", ("b", "a"): "a", ("b", "b"): "1",
        },
    )
    report2 = validate_category(cat2)
    assert not report2.ok
    assert "associativity" in report2.rules()


def test_fixtures_are_valid_categories(t1, z2, g2, i2, t2, iic_point, iic_chain2):
    for ic in (t1, z2, g2, i2, iic_point, iic_chain2):
        assert validate_category(ic.cat).ok
    assert validate_category(t2).ok


def test_inverse_recognition_accepts_fixtures(t1, z2, g2, i2, iic_chain2):
    for ic in (t1, z2, g2, i2, iic_chain2):
        recomputed = find_inverse_structure(ic.cat)
        assert recomputed.inverse == ic.inverse == brute_inverse_map(ic.cat)


def test_inverse_recognition_rejects_t2(t2):
    with pytest.raises(NotInverseCategory) as err:
        find_inverse_structure(t2)
    assert err.value.details["count"] == 2
    # the failing morphism is one of the constant maps and its candidates are both
    assert err.value.details["morphism"] in ("c1", "c2")
    assert set(err.value.details["candidates"]) == {"c1", "c2"}


def test_generalized_inverses_match_oracle(i2, t2):
    for m in i2.morphisms:
        assert sorted(generalized_inverses(i2.cat, m)) == brute_generalized_inverses(
            i2.cat, m
        )
    for m in t2.morphisms:
        assert sorted(generalized_inverses(t2, m)) == brute_generalized_inverses(t2, m)


def test_inverse_laws(i2, g2):
    for ic in (i2, g2):
        for s in ic.morphisms:
            assert ic.inv(ic.inv(s)) == s
            for t in ic.morphisms:
                st = ic.compose(s, t)
                if st is not None:
                    assert ic.inv(st) == ic.compose(ic.inv(t), ic.inv(s))


def test_idempotents_commute_and_meet(i2):
    assert set(i2.idempotents()) == set(brute_idempotents(i2.cat))
    for e in i2.idempotents():
        for f in i2.idempotents():
            ef = i2.compose(e, f)
            assert ef == i2.compose(f, e)
            assert i2.meet_idem(e, f) == ef
    assert i2.leq_idem("emp", "id") and not i2.leq_idem("id", "emp")


def test_natural_order_matches_oracle(i2):
    for s in i2.morphisms:
        for t in i2.morphisms:
            expected = brute_natural_leq(i2.cat, s, t)
            if expected is None:
                continue
            assert natural_leq(i2, s, t) == expected
    assert natural_leq(i2, "emp", "id")
    assert natural_leq(i2, "id1", "id")
    assert natural_leq(i2, "s12", "swap")
    assert not natural_leq(i2, "swap", "s12")


def test_natural_order_requires_parallel(g2):
    with pytest.raises(NotParallel):
        natural_leq(g2, "s", "1X")


def test_inner_outer_and_relation_classes(i2):
    assert inner_outer(i2, "s12") == ("*", "*", "id1", "id2")
    rc = relation_classes(i2)
    assert set(rc.r_classes) == {
        ("emp",),
        ("id1", "s21"),
        ("id2", "s12"),
        ("id", "swap"),
    }
    assert set(rc.l_classes) == {
        ("emp",),
        ("id1", "s12"),
        ("id2", "s21"),
        ("id", "swap"),
    }
    assert i2.isotropy("id") == ("id", "swap")
    assert i2.isotropy("id1") == ("id1",)


def test_functor_validation(z2, g2):
    ident = identity_functor(g2.cat)
    assert validate_functor(ident).ok
    composed = compose_functors(ident, ident)
    assert composed.morphisms == ident.morphisms

    # collapse the groupoid onto one object: s must land on an endomorphism
    bad = Functor(g2.cat, z2.cat, {"X": "*", "Y": "*"}, {
        "1X": "e", "1Y": "e", "s": "g", "si": "e",
    })
    report = validate_functor(bad)
    assert not report.ok  # si∘s = 1X but e∘g = g ≠ e
    good = Functor(g2.cat, z2.cat, {"X": "*", "Y": "*"}, {
        "1X": "e", "1Y": "e", "s": "g", "si": "g",
    })
    assert validate_functor(good).ok


def test_inclusion_functor_requires_shared_names(z2, g2):
    with pytest.raises(UndeclaredName) as info:
        inclusion_functor(z2.cat, g2.cat)
    assert info.value.details == {"names": ["*", "e", "g"]}


def test_invertible_and_isomorphic(i2, g2):
    assert invertible_morphisms(i2.cat) == {"id": "id", "swap": "swap"}
    iso = isomorphic_objects(g2.cat)
    assert iso["X"] == {"X", "Y"}


def _leq(ic, s: str, t: str) -> bool:
    """Natural order extended to non-parallel pairs (false there)."""
    return ic.cat.parallel(s, t) and natural_leq(ic, s, t)


def test_natural_order_is_a_partial_order(t1, z2, g2, i2, iic_chain2):
    for ic in (t1, z2, g2, i2, iic_chain2):
        for s in ic.morphisms:
            assert _leq(ic, s, s)
            for t in ic.morphisms:
                if _leq(ic, s, t) and _leq(ic, t, s):
                    assert s == t
                for u in ic.morphisms:
                    if _leq(ic, s, t) and _leq(ic, t, u):
                        assert _leq(ic, s, u)


def test_composition_is_monotone_for_the_natural_order(z2, g2, i2):
    for ic in (z2, g2, i2):
        pairs = [
            (s, t)
            for s in ic.morphisms
            for t in ic.morphisms
            if _leq(ic, s, t)
        ]
        for p, q in pairs:
            for s, t in pairs:
                ps, qt = ic.compose(p, s), ic.compose(q, t)
                if ps is not None and qt is not None:
                    assert _leq(ic, ps, qt)


def test_conjugated_idempotents_stay_idempotent(g2, i2):
    # s e s° is idempotent for every s and idempotent e at the source of s
    for ic in (g2, i2):
        for s in ic.morphisms:
            for e in ic.idempotents():
                if ic.src(e) != ic.src(s):
                    continue
                m = ic.compose(s, ic.compose(e, ic.inv(s)))
                assert m is not None and ic.is_idempotent(m)


def test_idempotent_meet_is_the_greatest_lower_bound(i2):
    for e in i2.idempotents():
        for f in i2.idempotents():
            m = i2.meet_idem(e, f)
            assert i2.leq_idem(m, e) and i2.leq_idem(m, f)
            for g in i2.idempotents():
                if i2.leq_idem(g, e) and i2.leq_idem(g, f):
                    assert i2.leq_idem(g, m)


def test_star_and_costar(g2, i2):
    rc = relation_classes(g2)
    assert rc.star == {"X": ("1X", "s"), "Y": ("1Y", "si")}
    assert rc.costar == {"X": ("1X", "si"), "Y": ("1Y", "s")}
    assert relation_classes(i2).star["*"] == tuple(sorted(i2.morphisms))
