"""Expansions over subset posets: pseudo product, wedge, restrictions."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import invcat.expansion
from invcat import (
    Functor,
    NotComposable,
    NotIdempotent,
    PartialOrderIso,
    PreconditionFailed,
    SizeCapExceeded,
    SzCategory,
    bernoulli_global,
    bernoulli_partial,
    classical_group_expansion,
    compose_functors,
    corestriction,
    expansion_functor,
    fibred_to_symmetry,
    identity_functor,
    inclusion_functor,
    inner_expansion,
    projection,
    pseudo_product,
    restriction,
    symmetry_to_partial,
    szendrei,
    validate_functor,
    validate_inverse_semigroup,
    wedge,
)
from invcat.expansion import VARIANTS, product_order_leq, semidirect_product

from oracles import (
    PARTIAL_BIJECTIONS,
    brute_prefix_expansion,
    cyclic_group,
    partial_injection_categories,
    sub_inverse_monoid,
)

FROZEN_COUNTS = {
    ("z2", "global"): 6,
    ("z2", "partial"): 3,
    ("z2", "strict_global"): 6,
    ("z2", "strict_partial"): 3,
    ("g2", "global"): 12,
    ("g2", "partial"): 6,
    ("g2", "strict_global"): 12,
    ("g2", "strict_partial"): 6,
    ("i2", "global"): 37,
    ("i2", "partial"): 22,
    ("i2", "strict_global"): 19,
    ("i2", "strict_partial"): 10,
}


def test_frozen_expansion_counts(expansions):
    for key, expected in FROZEN_COUNTS.items():
        assert len(expansions[key].ic.morphisms) == expected, key


def test_partial_expansion_of_z2_arrows(expansions):
    sz = expansions[("z2", "partial")]
    assert sorted(sz.ic.morphisms) == ["({e,g}|e)", "({e,g}|g)", "({e}|e)"]


def test_expansions_are_inverse_categories(expansions):
    for sz in expansions.values():
        for name in sz.ic.morphisms:
            key, s = sz.pair(name)
            assert sz.arrow_name(key, s) == name
            # the inverse arrow is (s°A, s°)
            ikey, inv_s = sz.pair(sz.ic.inv(name))
            assert inv_s == sz.origin.inv(s)


def test_pseudo_product_extends_composition(expansions):
    for key in (("z2", "global"), ("i2", "global"), ("g2", "global")):
        sz = expansions[key]
        for a in sz.ic.morphisms:
            for b in sz.ic.morphisms:
                if sz.ic.cat.composable(a, b):
                    assert pseudo_product(sz, a, b) == sz.ic.compose(a, b)


def test_pseudo_product_needs_composable_shadows(expansions):
    sz = expansions[("g2", "global")]
    arrow = next(n for n, (_, s) in sz.arrows.items() if s == "s")
    with pytest.raises(NotComposable):
        pseudo_product(sz, arrow, arrow)  # s: X→Y does not follow itself


def _wedge_formula(sz, a: str, b: str) -> str:
    """(E,i) ∧ (F,j) = (iε(F)·E ∪ iε(E)·F, ij), read off the raw tables."""
    (ekey, i), (fkey, j) = sz.pair(a), sz.pair(b)
    table, elements = sz.origin.cat.table, sz.carrier.elements
    members = {table[(elements[fkey].idem, m)] for m in elements[ekey].members}
    members |= {table[(elements[ekey].idem, m)] for m in elements[fkey].members}
    return "({" + ",".join(sorted(members)) + "}|" + table[(i, j)] + ")"


def test_wedge_is_star_on_idempotents_and_commutes(expansions):
    for sz in expansions.values():
        idems = [m for m in sz.ic.morphisms if sz.ic.is_idempotent(m)]
        for a in idems:
            for b in idems:
                if sz.origin.src(sz.pair(a)[1]) != sz.origin.src(sz.pair(b)[1]):
                    with pytest.raises(NotComposable):
                        wedge(sz, a, b)
                    continue
                w = wedge(sz, a, b)
                assert w == _wedge_formula(sz, a, b) == pseudo_product(sz, a, b) == wedge(sz, b, a)
                # w is the greatest lower bound in the product order
                for x in idems:
                    below_both = product_order_leq(sz, x, a) and product_order_leq(
                        sz, x, b
                    )
                    assert below_both == product_order_leq(sz, x, w)
        nonidem = next(m for m in sz.ic.morphisms if not sz.ic.is_idempotent(m))
        with pytest.raises(NotIdempotent):
            wedge(sz, nonidem, idems[0])


def test_restriction_values_and_failures(expansions):
    sz = expansions[("z2", "global")]
    arrow = "({e,g}|g)"
    below = "({e,g}|e)"  # below the inner source of arrow
    assert restriction(sz, arrow, below) == "({e,g}|g)"
    assert corestriction(sz, arrow, below) == "({e,g}|g)"
    for cut in (restriction, corestriction):
        with pytest.raises(NotIdempotent):
            cut(sz, arrow, arrow)
        # the idempotent is checked before the arrow is looked up
        with pytest.raises(NotIdempotent):
            cut(sz, "no-such-arrow", arrow)
    # ({e}|e) is NOT below ({e,g}|e) in the product order: {e} sits above
    for cut, side in ((restriction, "source"), (corestriction, "target")):
        with pytest.raises(PreconditionFailed, match=f"below the inner {side} ") as info:
            cut(sz, arrow, "({e}|e)")
        assert info.value.details == {"arrow": arrow, "idem": "({e}|e)", "inner": "({e,g}|e)"}


def test_inner_expansions_are_inverse_semigroups(expansions):
    for (label, variant), sz in expansions.items():
        for obj in sz.origin.objects:
            ie = inner_expansion(sz, obj)
            report = validate_inverse_semigroup(ie.elements, ie.table)
            assert report.ok, (label, variant, obj, report.summary())
            if variant in ("partial", "strict_partial"):
                one = sz.origin.identity_of(obj)
                assert ie.identity == f"({{{one}}}|{one})"


def test_projection_functor(expansions):
    for (label, variant), sz in expansions.items():
        report = validate_functor(projection(sz))
        # a strict identity (x, iρ(x)) projects to the idempotent iρ(x), on I2
        # not always an identity; every other functor law holds
        want = ("functor-identity",) if variant.startswith("strict") and label == "i2" else ()
        assert report.rules() == want, (label, variant, report.summary())


def test_expansion_functor_lifts_automorphism(g2, expansions):
    auto = Functor(
        g2.cat,
        g2.cat,
        {"X": "Y", "Y": "X"},
        {"1X": "1Y", "1Y": "1X", "s": "si", "si": "s"},
    )
    assert validate_functor(auto).ok
    for variant in ("global", "partial"):
        sz = expansions[("g2", variant)]
        lifted = expansion_functor(sz, sz, auto)
        assert validate_functor(lifted).ok
        proj = projection(sz)
        # naturality: projecting after lifting = mapping after projecting
        for name in sz.ic.morphisms:
            assert proj.on_mor(lifted.on_mor(name)) == auto.on_mor(proj.on_mor(name))


def test_group_expansion_matches_prefix_oracle(z2, expansions):
    names, table = classical_group_expansion(z2)
    oracle_names, oracle_table = brute_prefix_expansion(z2.cat, "*")
    assert list(names) == oracle_names
    assert table == oracle_table
    ie = inner_expansion(expansions[("z2", "partial")], "*")
    assert sorted(ie.elements) == oracle_names
    assert ie.table == oracle_table
    for n in range(2, 7):
        group = cyclic_group(n)
        names, table = classical_group_expansion(group)
        assert (list(names), table) == brute_prefix_expansion(group.cat, "*"), n


def assert_inner_tables_are_star(sz: SzCategory) -> None:
    """Every entry of every inner expansion of ``sz`` is the pseudo product
    of its pair; inner expansions above the cap are skipped."""
    for obj in sz.origin.objects:
        try:
            ie = inner_expansion(sz, obj, max_elements=4096)
        except SizeCapExceeded:
            continue
        assert len(ie.table) == len(ie.elements) ** 2
        for (a, b), c in ie.table.items():
            assert c == pseudo_product(sz, a, b), (sz.variant, obj, a, b)


def test_inner_tables_are_star_on_fixtures(expansions):
    for sz in expansions.values():
        assert_inner_tables_are_star(sz)


@settings(max_examples=15, deadline=None)
@given(partial_injection_categories(), st.sampled_from(VARIANTS))
def test_inner_tables_are_star_on_partial_injection_categories(ic, variant):
    assert_inner_tables_are_star(szendrei(ic, variant))


def test_inner_expansion_takes_no_pseudo_product(monkeypatch, expansions):
    calls = []
    monkeypatch.setattr(invcat.expansion, "pseudo_product", lambda *args: calls.append(args))
    for sz in expansions.values():
        for obj in sz.origin.objects:
            inner_expansion(sz, obj)
    assert calls == []


def test_product_order_examples(expansions):
    sz = expansions[("z2", "global")]
    assert product_order_leq(sz, "({e,g}|e)", "({e}|e)")  # larger subset = lower
    assert not product_order_leq(sz, "({e}|e)", "({e,g}|e)")
    assert product_order_leq(sz, "({e,g}|g)", "({g}|g)")
    assert not product_order_leq(sz, "({e}|e)", "({g}|g)")


def _star(sz, a: str, b: str) -> str | None:
    try:
        return pseudo_product(sz, a, b)
    except NotComposable:
        return None


def test_pseudo_product_is_associative(expansions):
    # (a⋆b)⋆c and a⋆(b⋆c) are defined together and agree
    for sz in expansions.values():
        ms = sz.ic.morphisms
        table = {(a, b): _star(sz, a, b) for a in ms for b in ms}
        for a in ms:
            for b in ms:
                ab = table[(a, b)]
                for c in ms:
                    bc = table[(b, c)]
                    left = table[(ab, c)] if ab is not None else None
                    right = table[(a, bc)] if bc is not None else None
                    assert left == right


def test_pseudo_product_inverses_are_generalized_inverses(expansions):
    for sz in expansions.values():
        for a in sz.ic.morphisms:
            b = sz.ic.inv(a)
            assert pseudo_product(sz, pseudo_product(sz, a, b), a) == a
            assert pseudo_product(sz, pseudo_product(sz, b, a), b) == b


def test_star_idempotents_are_the_category_idempotents(expansions):
    for sz in expansions.values():
        for a in sz.ic.morphisms:
            assert (_star(sz, a, a) == a) == sz.ic.is_idempotent(a)


def test_product_order_makes_an_ordered_inverse_category(expansions):
    # composition, inversion, and the inner idempotents are all monotone
    for sz in expansions.values():
        ms = sz.ic.morphisms
        leq = {(u, v) for u in ms for v in ms if product_order_leq(sz, u, v)}
        for u, v in leq:
            assert (sz.ic.inv(u), sz.ic.inv(v)) in leq
            assert (sz.ic.dom_idem(u), sz.ic.dom_idem(v)) in leq
            assert (sz.ic.ran_idem(u), sz.ic.ran_idem(v)) in leq
        for u, v in leq:
            for x, y in leq:
                ux, vy = sz.ic.compose(u, x), sz.ic.compose(v, y)
                if ux is not None and vy is not None:
                    assert (ux, vy) in leq


def test_restrictions_are_unique_in_every_variant(expansions):
    # below each arrow there is exactly one arrow with a prescribed inner
    # source (restriction) or inner target (corestriction)
    for sz in expansions.values():
        ms = sz.ic.morphisms
        leq = {(u, v) for u in ms for v in ms if product_order_leq(sz, u, v)}
        idems = [m for m in ms if sz.ic.is_idempotent(m)]
        for a in ms:
            for e in idems:
                if (e, sz.ic.dom_idem(a)) in leq:
                    r = restriction(sz, a, e)
                    assert (r, a) in leq and sz.ic.dom_idem(r) == e
                    assert [
                        m for m in ms if (m, a) in leq and sz.ic.dom_idem(m) == e
                    ] == [r]
                if (e, sz.ic.ran_idem(a)) in leq:
                    c = corestriction(sz, a, e)
                    assert (c, a) in leq and sz.ic.ran_idem(c) == e
                    assert [
                        m for m in ms if (m, a) in leq and sz.ic.ran_idem(m) == e
                    ] == [c]


def test_partial_variants_are_full_subcategories_of_global(expansions):
    for label in ("z2", "g2", "i2"):
        for small, big in (("partial", "global"), ("strict_partial", "strict_global")):
            sub, glob = expansions[(label, small)], expansions[(label, big)]
            sub_objects = set(sub.ic.objects)
            assert sub_objects <= set(glob.ic.objects)
            between = {
                m
                for m in glob.ic.morphisms
                if glob.ic.src(m) in sub_objects and glob.ic.tgt(m) in sub_objects
            }
            assert set(sub.ic.morphisms) == between
            for (a, b), c in sub.ic.cat.table.items():
                assert glob.ic.compose(a, b) == c
            for m in sub.ic.morphisms:
                assert glob.ic.inv(m) == sub.ic.inv(m)


def test_frozen_product_and_restriction_values(expansions):
    szz = expansions[("z2", "global")]
    assert pseudo_product(szz, "({g}|g)", "({g}|g)") == "({e,g}|e)"
    assert szz.ic.compose("({g}|g)", "({e}|g)") == "({g}|e)"
    assert pseudo_product(szz, "({g}|g)", "({e}|g)") == "({g}|e)"
    assert wedge(szz, "({e}|e)", "({e,g}|e)") == "({e,g}|e)"
    szi = expansions[("i2", "global")]
    assert wedge(szi, "({id1}|id1)", "({id}|id)") == "({id1}|id1)"
    assert product_order_leq(szi, "({id1}|id1)", "({id}|id)")
    assert restriction(szi, "({id}|id)", "({id1}|id1)") == "({id1}|id1)"
    assert corestriction(szi, "({id,swap}|swap)", "({id1,s21}|id1)") == "({id1,s21}|s21)"
    assert corestriction(szi, "({id,swap}|swap)", "({emp}|emp)") == "({emp}|emp)"
    # {id1} is not below the inner target ({id,swap}|id): id1·{id,swap} ⊄ {id1}
    with pytest.raises(PreconditionFailed):
        corestriction(szi, "({id,swap}|swap)", "({id1}|id1)")


def test_collapse_functor_lifts_and_projection_is_natural(t1, z2, expansions):
    szz = expansions[("z2", "global")]
    szt = szendrei(t1, "global")
    proj_z, proj_t = projection(szz), projection(szt)
    assert set(proj_z.morphisms.values()) == set(z2.morphisms)
    collapse = Functor(z2.cat, t1.cat, {"*": "*"}, {"e": "1", "g": "1"})
    lifted = expansion_functor(szz, szt, collapse)
    assert validate_functor(lifted).ok
    assert set(lifted.morphisms.values()) == {"({1}|1)"}
    for m in szz.ic.morphisms:
        assert proj_t.morphisms[lifted.morphisms[m]] == collapse.morphisms[proj_z.morphisms[m]]
    # lifting is functorial: the two lifts compose to the identity lift
    embed = Functor(t1.cat, z2.cat, {"*": "*"}, {"1": "e"})
    lifted_embed = expansion_functor(szt, szz, embed)
    assert validate_functor(lifted_embed).ok
    round_trip = compose_functors(lifted, lifted_embed)
    identity = identity_functor(szt.ic.cat)
    assert round_trip.objects == identity.objects
    assert round_trip.morphisms == identity.morphisms


def test_converted_global_action_gives_the_global_expansion(t1, z2, g2, i2):
    # the fibred action reaches the semidirect product through the converters
    for ic in (t1, z2, g2, i2):
        bundle = symmetry_to_partial(fibred_to_symmetry(bernoulli_global(ic)))
        product, arrows = semidirect_product(bundle)
        sz = szendrei(ic, "global")
        assert arrows == sz.arrows
        assert product.cat.table == sz.ic.cat.table
        assert product.cat.identity == sz.ic.cat.identity
        assert product.inverse == sz.ic.inverse


def test_every_element_needs_exactly_one_unit_arrow(g2):
    bundle = bernoulli_partial(g2)
    x = min(bundle.domains["1X"])
    # x also in the domain of 1Y, with θ_1Y fixing it
    both = dataclasses.replace(
        bundle,
        maps={**bundle.maps, "1Y": PartialOrderIso((*bundle.maps["1Y"].pairs, (x, x)))},
    )
    # x in no identity domain
    neither = dataclasses.replace(
        bundle,
        maps={
            **bundle.maps,
            "1X": PartialOrderIso(tuple(p for p in bundle.maps["1X"].pairs if p[0] != x)),
        },
    )
    for broken in (both, neither):
        with pytest.raises(PreconditionFailed, match="exactly one unit arrow"):
            semidirect_product(broken)


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.sampled_from(PARTIAL_BIJECTIONS), max_size=2),
    st.lists(st.sampled_from(PARTIAL_BIJECTIONS), max_size=2),
    st.lists(st.sampled_from(PARTIAL_BIJECTIONS), max_size=1),
    st.sampled_from(["global", "partial", "strict_global", "strict_partial"]),
)
def test_expansion_is_functorial_on_inclusions_of_sub_inverse_monoids_of_i3(a, b, c, variant):
    """Sz(g∘f) = Sz(g)∘Sz(f) and Sz(1) = 1 for inclusions M_a ⊆ M_ab ⊆ M_abc."""
    small, middle, large = (sub_inverse_monoid(gens) for gens in (a, a + b, a + b + c))
    sz = {k: szendrei(m, variant) for k, m in (("s", small), ("m", middle), ("l", large))}
    f = inclusion_functor(small.cat, middle.cat)
    g = inclusion_functor(middle.cat, large.cat)
    lift_f = expansion_functor(sz["s"], sz["m"], f)
    lift_g = expansion_functor(sz["m"], sz["l"], g)
    assert validate_functor(lift_f).ok and validate_functor(lift_g).ok
    lift_gf = expansion_functor(sz["s"], sz["l"], compose_functors(g, f))
    composed = compose_functors(lift_g, lift_f)
    assert (lift_gf.objects, lift_gf.morphisms) == (composed.objects, composed.morphisms)
    lift_1 = expansion_functor(sz["m"], sz["m"], identity_functor(middle.cat))
    unit = identity_functor(sz["m"].ic.cat)
    assert (lift_1.objects, lift_1.morphisms) == (unit.objects, unit.morphisms)
