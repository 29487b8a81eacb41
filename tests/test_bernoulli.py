"""The subset poset of a category and its global/partial actions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from invcat import (
    FibredAction,
    MomentMap,
    SizeCapExceeded,
    bernoulli_global,
    bernoulli_partial,
    build_bernoulli,
    natural_leq,
    validate_fibred,
    validate_partial,
)
from invcat.poset import subset_name

from oracles import (
    PARTIAL_BIJECTIONS,
    brute_bernoulli_subsets,
    brute_pointed_domain,
    partial_injection_categories,
    sub_inverse_monoid,
)


def test_counts_and_membership_match_subset_filter(t1, z2, g2, i2):
    expected_counts = {
        "t1": (1, 1),
        "z2": (3, 2),
        "g2": (6, 4),
        "i2": (10, 7),
    }
    for label, ic in (("t1", t1), ("z2", z2), ("g2", g2), ("i2", i2)):
        for pointed, slot in ((False, 0), (True, 1)):
            bp = build_bernoulli(ic, pointed=pointed)
            assert len(bp.elements) == expected_counts[label][slot]
            expected = brute_bernoulli_subsets(ic.cat, ic.inverse, pointed)
            assert {elt.members for elt in bp.elements.values()} == expected


def assert_element_order(ic) -> None:
    """The carrier lists the subsets of ``brute_bernoulli_subsets`` by
    idempotent name, then size, then combination order over R_e sorted by
    name, which is the order of their sorted member lists."""
    def place(subset: frozenset[str]) -> tuple:
        m = next(iter(subset))
        return ic.cat.table[(m, ic.inverse[m])], len(subset), sorted(subset)

    for pointed in (False, True):
        expected = sorted(brute_bernoulli_subsets(ic.cat, ic.inverse, pointed), key=place)
        assert list(build_bernoulli(ic, pointed).elements) == list(map(subset_name, expected)), pointed


def test_element_order_on_fixtures(request):
    for name in ("t1", "z2", "g2", "i2", "iic_point", "iic_chain2"):
        assert_element_order(request.getfixturevalue(name))


@settings(max_examples=15, deadline=None)
@given(partial_injection_categories())
def test_element_order_on_partial_injection_categories(ic):
    assert_element_order(ic)


def test_signatures(i2):
    bp = build_bernoulli(i2)
    for key, elt in bp.elements.items():
        assert bp.signature(key) == (elt.obj, elt.idem)
        ranges = {i2.compose(m, i2.inv(m)) for m in elt.members}
        assert ranges == {elt.idem}


def test_order_matches_componentwise_definition(i2):
    for pointed in (False, True):
        bp = build_bernoulli(i2, pointed=pointed)
        for akey, a in bp.elements.items():
            for bkey, b in bp.elements.items():
                expected = (
                    a.obj == b.obj
                    and i2.leq_idem(a.idem, b.idem)
                    and all(
                        i2.compose(a.idem, m) in a.members for m in b.members
                    )
                )
                assert bp.poset.leq(akey, bkey) == expected


def test_act_left_translates(i2):
    bp = build_bernoulli(i2)
    key = next(k for k, e in bp.elements.items() if e.members == frozenset({"id", "swap"}))
    moved = bp.act("s12", key)
    assert bp.elements[moved].members == frozenset({"s12", "s21"}) or bp.elements[
        moved
    ].members == {i2.compose("s12", m) for m in ("id", "swap")}


def test_global_action_validates(z2, g2, i2):
    for ic in (z2, g2, i2):
        report = validate_fibred(bernoulli_global(ic))
        assert report.ok, report.summary()


def test_partial_bundles_validate(z2, g2, i2):
    for ic in (z2, g2, i2):
        for strict in (False, True):
            bundle = bernoulli_partial(ic, strict=strict)
            report = validate_partial(bundle)
            assert report.ok, report.summary()


def test_partial_domains_of_z2(z2):
    bundle = bernoulli_partial(z2)
    assert bundle.domains["e"] == frozenset({"{e}", "{e,g}"})
    assert bundle.domains["g"] == frozenset({"{e,g}"})
    # one idempotent only, so the strict bound changes nothing for a group
    strict = bernoulli_partial(z2, strict=True)
    assert strict.domains == bundle.domains


def test_size_cap(i2):
    with pytest.raises(SizeCapExceeded):
        build_bernoulli(i2, max_elements=4)


def test_pointed_poset_is_the_induced_suborder(z2, i2):
    for ic in (z2, i2):
        bp = build_bernoulli(ic)
        pointed = build_bernoulli(ic, pointed=True)
        keys = set(pointed.poset.elements)
        assert keys <= set(bp.poset.elements)
        induced = {(a, b) for (a, b) in bp.poset.relation if a in keys and b in keys}
        assert set(pointed.poset.relation) == induced


def test_action_preserves_both_orders(g2, i2):
    # A ≤ B and s ≤ t with both images defined forces sA ≤ tB
    for ic in (g2, i2):
        action = bernoulli_global(ic)
        below = [
            (s, t)
            for s in ic.morphisms
            for t in ic.morphisms
            if ic.cat.parallel(s, t) and natural_leq(ic, s, t)
        ]
        for s, t in below:
            for a, b in action.poset.relation:
                if (s, a) in action.theta and (t, b) in action.theta:
                    assert action.poset.leq(action.theta[(s, a)], action.theta[(t, b)])


def test_action_transports_signatures(g2, i2):
    # (X, e) moves to (or(s), s·e·s°)
    for ic in (g2, i2):
        action = bernoulli_global(ic)
        for (s, x), y in action.theta.items():
            _, e = action.moment.of(x)
            conj = ic.compose(ic.compose(s, e), ic.inv(s))
            assert action.moment.of(y) == (ic.tgt(s), conj)


def test_strict_domains_sit_inside_non_strict_domains(z2, g2, i2):
    for ic in (z2, g2, i2):
        action, strict_action = bernoulli_global(ic), bernoulli_global(ic, strict=True)
        bundle, strict_bundle = bernoulli_partial(ic), bernoulli_partial(ic, strict=True)
        for s in ic.morphisms:
            assert strict_action.domain(s) <= action.domain(s)
            assert strict_bundle.domains[s] <= bundle.domains[s]


def test_translates_of_pointed_subsets_cover_everything(z2, g2, i2):
    for ic in (z2, g2, i2):
        action = bernoulli_global(ic)
        pointed = set(build_bernoulli(ic, pointed=True).elements)
        reached = {y for (s, x), y in action.theta.items() if x in pointed}
        assert reached == set(action.poset.elements)


def test_frozen_action_values(z2, i2):
    zaction = bernoulli_global(z2)
    assert zaction.apply("g", "{e,g}") == "{e,g}"
    action = bernoulli_global(i2)
    assert action.apply("swap", "{id1}") == "{s12}"
    assert action.moment.of("{s12}") == ("*", "id2")
    strict_action = bernoulli_global(i2, strict=True)
    assert sorted(strict_action.domain("id1")) == ["{id1,s21}", "{id1}", "{s21}"]
    strict_bundle = bernoulli_partial(i2, strict=True)
    assert strict_bundle.domains["swap"] == frozenset({"{id,swap}"})


def assert_domains_match_filters(ic) -> None:
    """``BernoulliPoset.domain`` against a filter over every carrier element,
    element order included: admissibility of s° on the global carrier, the
    signature-and-marker oracle on the pointed one."""
    for pointed in (False, True):
        bp = build_bernoulli(ic, pointed=pointed)
        moment = MomentMap(
            {k: elt.obj for k, elt in bp.elements.items()},
            {k: elt.idem for k, elt in bp.elements.items()},
        )
        for strict in (False, True):
            action = FibredAction(ic, bp.poset, moment, {}, strict=strict)
            for s in ic.morphisms:
                if pointed:
                    expected = brute_pointed_domain(ic.cat, ic.inverse, bp.elements, s, strict)
                else:
                    expected = [x for x in bp.poset.elements if action.admissible(ic.inv(s), x)]
                assert list(bp.domain(s, strict)) == expected, (pointed, strict, s)


def test_domains_match_filters_on_fixtures(request):
    for name in ("t1", "z2", "g2", "i2", "iic_point", "iic_chain2"):
        assert_domains_match_filters(request.getfixturevalue(name))


@settings(max_examples=15, deadline=None)
@given(st.lists(st.sampled_from(PARTIAL_BIJECTIONS), min_size=1, max_size=3))
def test_domains_match_filters_on_random_sub_inverse_monoids_of_i3(generators):
    assert_domains_match_filters(sub_inverse_monoid(generators))
