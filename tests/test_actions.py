"""Fibred actions, symmetry functors, partial-action bundles, restriction."""

from __future__ import annotations

import dataclasses

import pytest

from invcat import (
    NotAFunctor,
    NotGlobal,
    NotIdeal,
    PartialActionBundle,
    PartialOrderIso,
    bernoulli_partial,
    build_bernoulli,
    bernoulli_global,
    canonical_self_action,
    conjugation_action,
    fibred_to_symmetry,
    is_ideal,
    natural_leq,
    natural_order_poset,
    restrict_to_ideal,
    symmetry_to_partial,
    validate_fibred,
    validate_partial,
    validate_symmetry,
)


def all_fixture_actions(ics):
    for ic in ics:
        yield canonical_self_action(ic)
        yield conjugation_action(ic)


def test_natural_order_poset_matches_natural_leq(cases):
    """So do the order of the conjugation action and ``leq_idem``."""
    for ic in cases.values():
        poset = natural_order_poset(ic)
        for a in ic.morphisms:
            for b in ic.morphisms:
                expected = ic.cat.parallel(a, b) and natural_leq(ic, a, b)
                assert poset.leq(a, b) == expected
        idem = ic.idempotents()
        want = {(e, f) for e in idem for f in idem if ic.leq_idem(e, f)}
        assert conjugation_action(ic).poset.relation == want


def test_canonical_and_conjugation_actions_validate(t1, z2, g2, i2, iic_chain2):
    for action in all_fixture_actions((t1, z2, g2, i2, iic_chain2)):
        report = validate_fibred(action)
        assert report.ok, report.summary()


def test_conjugation_values(i2):
    action = conjugation_action(i2)
    assert action.apply("swap", "id1") == "id2"
    assert action.apply("s12", "id1") == "id2"
    assert action.apply("emp", "emp") == "emp"
    assert not action.admissible("s12", "id")  # id is not below dom_idem(s12)


def test_tampered_fibred_action_is_caught(z2):
    action = canonical_self_action(z2)
    broken = dict(action.theta)
    broken[("g", "g")] = "g"  # should be e
    report = validate_fibred(dataclasses.replace(action, theta=broken))
    assert not report.ok


def test_fibred_to_symmetry_to_partial_roundtrip(t1, z2, g2, i2, iic_chain2):
    for action in all_fixture_actions((t1, z2, g2, i2, iic_chain2)):
        sym = fibred_to_symmetry(action)
        report = validate_symmetry(sym)
        assert report.ok, report.summary()
        bundle = symmetry_to_partial(sym)
        assert bundle.is_global()
        preport = validate_partial(bundle)
        assert preport.ok, preport.summary()
        # the bundle retells the action: D_s = range of θ_s = action.domain(s)
        for s in action.ic.morphisms:
            assert bundle.domains[s] == action.domain(s)


def test_points_outside_the_poset_are_a_broken_iso(z2):
    bundle = bernoulli_partial(z2)
    tampered = dataclasses.replace(
        bundle,
        maps={
            s: PartialOrderIso(tuple(sorted((*iso.pairs, ("ghost", "ghost")))))
            for s, iso in bundle.maps.items()
        },
    )
    report = validate_partial(tampered)
    first = report.violations[0]
    assert first.rule == "axiom-i"
    assert "point outside the poset" in first.detail and "ghost" in first.detail


def test_broken_symmetry_is_rejected(z2):
    sym = fibred_to_symmetry(canonical_self_action(z2))
    isos = dict(sym.isos)
    isos["e"] = dataclasses.replace(isos["e"], pairs=())
    with pytest.raises(NotAFunctor):
        symmetry_to_partial(dataclasses.replace(sym, isos=isos))


def test_restrict_to_ideal_rejects_partial_and_non_ideals(i2):
    partial = bernoulli_partial(i2)
    with pytest.raises(NotGlobal):
        restrict_to_ideal(partial, partial.poset.elements)

    action = bernoulli_global(i2)
    bundle = symmetry_to_partial(fibred_to_symmetry(action))
    with pytest.raises(NotIdeal):
        restrict_to_ideal(bundle, ["{id,swap}"])  # upward subset, not downward
    with pytest.raises(NotIdeal):
        restrict_to_ideal(bundle, ["no-such-element"])


def test_restriction_to_pointed_ideal_reproduces_partial_bundle(z2, g2, i2):
    for ic in (z2, g2, i2):
        bundle = symmetry_to_partial(fibred_to_symmetry(bernoulli_global(ic)))
        pointed = build_bernoulli(ic, pointed=True)
        cut = restrict_to_ideal(bundle, pointed.elements)
        direct = bernoulli_partial(ic)
        assert set(cut.poset.elements) == set(direct.poset.elements)
        for s in ic.morphisms:
            assert cut.domains[s] == direct.domains[s]
            assert dict(cut.maps[s].pairs) == dict(direct.maps[s].pairs)
        report = validate_partial(cut)
        assert report.ok, report.summary()


def test_strict_relaxations_are_real(i2):
    strict = bernoulli_partial(i2, strict=True)
    report = validate_partial(strict)
    assert report.ok, report.summary()
    # the same data under the non-strict rules genuinely fails: strict domains
    # are not ideals and the cover/agreement/composition rules tighten
    relaxated_off = PartialActionBundle(
        strict.ic, strict.poset, strict.maps, strict=False
    )
    verbatim = validate_partial(relaxated_off)
    assert not verbatim.ok
    assert "axiom-i" in verbatim.rules()


def test_fibred_report_keeps_its_first_witnesses(i2):
    # the first witness of each rule is the one the all-pairs scans found
    action = bernoulli_global(i2)
    theta = dict(action.theta)
    theta[("s12", "{emp}")], theta[("s12", "{s21}")] = theta[("s12", "{s21}")], theta[("s12", "{emp}")]
    assert validate_fibred(dataclasses.replace(action, theta=theta)).summary() == (
        "axiom-ii('s12', '{s21}'): image idempotent must equal ss° when x sits at s°s; "
        "axiom-ii-monotone('s12', '{emp}', '{id1,s21}'): θ_s does not preserve the order; "
        "axiom-iii('s12', 'emp', '{emp}'): θ_s∘θ_t gives '{id2}' (defined=True) but "
        "θ_st gives '{emp}' (defined=True)"
    )
    assert validate_fibred(bernoulli_global(i2, strict=True)).summary() == (
        "axiom-iii('id1', 'emp', '{emp}'): θ_s∘θ_t gives None (defined=False) but "
        "θ_st gives '{emp}' (defined=True)"
    )


def test_strict_global_fibred_axioms_fail_only_on_kleene(z2, g2, i2):
    # groups and groupoids: strict admissibility changes nothing
    for ic in (z2, g2):
        assert validate_fibred(bernoulli_global(ic, strict=True)).ok
    # a proper inverse monoid: composites escape the strict domains
    report = validate_fibred(bernoulli_global(i2, strict=True))
    assert not report.ok
    assert set(report.rules()) == {"axiom-iii"}


def test_theta_maps_are_order_bijections_with_inverses(z2, g2, i2):
    for ic in (z2, g2, i2):
        for action in (
            canonical_self_action(ic),
            conjugation_action(ic),
            bernoulli_global(ic),
        ):
            for s in ic.morphisms:
                dom = [x for x in action.poset.elements if action.admissible(s, x)]
                images = [action.apply(s, x) for x in dom]
                assert len(set(images)) == len(dom)
                assert set(images) == set(action.domain(s))
                for x in dom:
                    assert action.apply(ic.inv(s), action.apply(s, x)) == x
                for x, y in action.poset.relation:
                    if x in dom and y in dom:
                        assert action.poset.leq(action.apply(s, x), action.apply(s, y))


def test_idempotents_fix_elements_below_them(i2):
    for action in (
        canonical_self_action(i2),
        conjugation_action(i2),
        bernoulli_global(i2),
    ):
        for e in i2.idempotents():
            for x in action.poset.elements:
                if action.admissible(e, x):
                    assert action.apply(e, x) == x


def test_moment_fibers_are_ideals_partitioning_the_poset(g2, i2):
    for ic in (g2, i2):
        for action in (canonical_self_action(ic), bernoulli_global(ic)):
            fibers: dict[str, list[str]] = {}
            for x in action.poset.elements:
                fibers.setdefault(action.moment.obj[x], []).append(x)
            assert sorted(sum(fibers.values(), [])) == sorted(action.poset.elements)
            for fiber in fibers.values():
                assert is_ideal(action.poset, fiber)
