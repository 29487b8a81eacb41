"""Light's test and the generator-only action checks against full scans.

``validate_category`` decides associativity on ``generators(cat)`` once its
other rules hold; ``validate_symmetry`` and non-strict ``validate_fibred``
ask their composition laws (and the order tests they imply) of generators
only once the acting category passes; ``validate_partial`` asks axiom iv of
the parallel pairs only, walking hom-sets.  Each report must equal the full
scan in oracles.py, rule for rule and witness for witness.  The count guards keep
an all-triples walk from coming back unseen.  The tampered partial bundles
also feed ``semidirect_product``, which may refuse them only with a typed
error.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

import invcat.actions as actions_module
from invcat import (
    FiniteCategory,
    InverseCategory,
    PartialActionBundle,
    bernoulli_global,
    bernoulli_partial,
    build_Iic,
    canonical_self_action,
    conjugation_action,
    fibred_to_symmetry,
    generators,
    restrict_to_ideal,
    symmetry_to_partial,
    validate_category,
    validate_fibred,
    validate_partial,
    validate_symmetry,
)
from invcat.core import associative_generators
from invcat.errors import NotAFunctor, ToolkitError
from invcat.expansion import semidirect_product
from invcat.poset import PartialOrderIso, antichain_poset

from oracles import (
    CountingTable,
    PARTIAL_BIJECTIONS,
    brute_associativity_violations,
    brute_exactness_violations,
    brute_fibred_violations,
    brute_partial_violations,
    brute_symmetry_violations,
    sub_inverse_monoid,
)

RULES = ("missing-composite", "spurious-composite", "composite-typing", "associativity")


def closure(cat: FiniteCategory, seeds) -> set[str]:
    """Everything composed from ``seeds`` and the identities, in any bracketing."""
    reached = set(seeds) | set(cat.identity.values())
    while True:
        new = {cat.table[(g, f)] for g in reached for f in reached if cat.composable(g, f)}
        if new <= reached:
            return reached
        reached |= new


def redirected(cat: FiniteCategory, k: int, j: int) -> FiniteCategory:
    """The table with its k-th entry sent to the j-th arrow parallel to it."""
    table = dict(cat.table)
    key, h = sorted(table.items())[k % len(table)]
    parallel = [m for m in cat.morphisms if cat.parallel(m, h)]
    table[key] = parallel[j % len(parallel)]
    return FiniteCategory(cat.objects, cat.morphisms, cat.src, cat.tgt, cat.identity, table)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(PARTIAL_BIJECTIONS), max_size=3),
    st.none() | st.tuples(st.integers(0, 10**6), st.integers(0, 40)),
)
def test_light_test_matches_the_triple_scan_on_sub_inverse_monoids_of_i3(gens, redirect):
    cat = sub_inverse_monoid(gens).cat
    if redirect is not None:
        cat = redirected(cat, *redirect)
    assert closure(cat, generators(cat)) == set(cat.morphisms)
    report = validate_category(cat)
    got = [(v.rule, v.witness) for v in report.violations if v.rule in RULES]
    assert got == brute_exactness_violations(cat) + brute_associativity_violations(cat)
    if redirect is None:
        assert report.ok


def test_generators_reach_every_morphism_of_the_fixtures(t1, z2, g2, i2, iic_chain2, expansions):
    cats = [ic.cat for ic in (t1, z2, g2, i2, iic_chain2)] + [sz.ic.cat for sz in expansions.values()]
    for cat in cats:
        gens = generators(cat)
        assert closure(cat, gens) == set(cat.morphisms)
        assert not set(gens) & set(cat.identity.values())
    assert generators(t1.cat) == ()
    assert len(generators(z2.cat)) == 1


def test_non_associative_tables_keep_every_witness():
    # the left-zero/right-zero mix of test_core, and a sub-inverse-monoid of
    # I_3 with one entry redirected
    cat = FiniteCategory.build(
        ["X"], {"1": ("X", "X"), "a": ("X", "X"), "b": ("X", "X")},
        {"X": "1"},
        {
            ("1", "1"): "1", ("1", "a"): "a", ("a", "1"): "a",
            ("1", "b"): "b", ("b", "1"): "b",
            ("a", "a"): "1", ("a", "b"): "a", ("b", "a"): "a", ("b", "b"): "1",
        },
    )
    monoid = sub_inverse_monoid([(1, 0, None), (0, None, None)])
    for bad in (cat, non_associative(monoid).cat):
        report = validate_category(bad)
        assert "associativity" in report.rules()
        assert [(v.rule, v.witness) for v in report.violations] == brute_associativity_violations(bad)
        assert associative_generators(bad) is None


def test_validating_iic_antichain3_looks_up_under_a_tenth_of_its_triples():
    cat = build_Iic(antichain_poset(["a", "b", "c"])).cat
    triples = sum(len(cat._by_src[cat.tgt[g]]) for g, _ in cat.table)
    assert triples == 769096
    counting = CountingTable(cat.table)
    counted = FiniteCategory(cat.objects, cat.morphisms, cat.src, cat.tgt, cat.identity, counting)
    assert validate_category(counted).ok
    assert counting.lookups < triples / 10


# ---------------------------------------------------------------------------
# the action validators


def rows(report) -> list[tuple[str, tuple, str]]:
    return [(v.rule, v.witness, v.detail) for v in report.violations]


def tampered_theta(action, rng: random.Random):
    """One seeded change to θ or to the moment map."""
    theta = dict(action.theta)
    keys = sorted(theta)
    elements = action.poset.elements
    s, x = rng.choice(keys)
    kind = rng.randrange(5)
    if kind == 0:  # swap two images of one θ_s
        others = [k for k in keys if k[0] == s and k != (s, x)]
        if others:
            other = rng.choice(others)
            theta[(s, x)], theta[other] = theta[other], theta[(s, x)]
    elif kind == 1:  # redirect one image
        theta[(s, x)] = rng.choice(elements)
    elif kind == 2:  # drop one pair
        del theta[(s, x)]
    elif kind == 3:  # define θ on a pair
        theta[(rng.choice(action.ic.morphisms), rng.choice(elements))] = rng.choice(elements)
    else:  # move an element's moment to another idempotent at its object
        idem = dict(action.moment.idem)
        obj = action.moment.obj[x]
        idem[x] = rng.choice([e for e in action.ic.idempotents() if action.ic.src(e) == obj])
        moment = dataclasses.replace(action.moment, idem=idem)
        return dataclasses.replace(action, moment=moment)
    return dataclasses.replace(action, theta=theta)


def tampered_isos(sym, rng: random.Random):
    """One seeded change to the isos of a symmetry action."""
    isos = dict(sym.isos)
    s, t = rng.choice(sym.ic.morphisms), rng.choice(sym.ic.morphisms)
    pairs = list(isos[s].pairs)
    kind = rng.randrange(4)
    if kind == 0 and len(pairs) > 1:  # swap two images
        i, j = rng.sample(range(len(pairs)), 2)
        (a, b), (c, d) = pairs[i], pairs[j]
        pairs[i], pairs[j] = (a, d), (c, b)
    elif kind == 1 and pairs:  # drop a pair
        pairs.pop(rng.randrange(len(pairs)))
    elif kind == 2:  # exchange the isos of two morphisms
        isos[s], isos[t] = isos[t], isos[s]
        return dataclasses.replace(sym, isos=isos)
    else:  # send one point elsewhere in the poset
        x = rng.choice(sym.poset.elements)
        pairs = [(a, b) for a, b in pairs if a != x] + [(x, rng.choice(sym.poset.elements))]
    isos[s] = PartialOrderIso(tuple(sorted(pairs)))
    return dataclasses.replace(sym, isos=isos)


def tampered_bundle(bundle, rng: random.Random):
    """One seeded change to the maps of a partial bundle."""
    maps = dict(bundle.maps)
    s, t = rng.choice(bundle.ic.morphisms), rng.choice(bundle.ic.morphisms)
    pairs = list(maps[s].pairs)
    elements = bundle.poset.elements
    kind = rng.randrange(6)
    if kind == 0 and len(pairs) > 1:  # swap two images of θ_s
        i, j = rng.sample(range(len(pairs)), 2)
        (a, b), (c, d) = pairs[i], pairs[j]
        pairs[i], pairs[j] = (a, d), (c, b)
    elif kind == 1 and pairs:  # drop a pair of θ_s
        pairs.pop(rng.randrange(len(pairs)))
    elif kind == 2:  # add or remove one fixed point of θ_s
        x = rng.choice(elements)
        pairs = [p for p in pairs if p != (x, x)] if (x, x) in pairs else [*pairs, (x, x)]
    elif kind == 3:  # cut θ_s to its first pair
        pairs = pairs[:1]
    elif kind == 4:  # exchange the maps of two morphisms
        maps[s], maps[t] = maps[t], maps[s]
        return dataclasses.replace(bundle, maps=maps)
    else:  # send one point elsewhere in the poset
        x = rng.choice(elements)
        pairs = [(a, b) for a, b in pairs if a != x] + [(x, rng.choice(elements))]
    maps[s] = PartialOrderIso(tuple(sorted(pairs)))
    return dataclasses.replace(bundle, maps=maps)


def non_associative(ic: InverseCategory) -> InverseCategory:
    """The same arrows and inverse map over a table that fails Light's test."""
    for k in range(len(ic.cat.table)):
        for j in range(len(ic.morphisms)):
            bad = redirected(ic.cat, k, j)
            if validate_category(bad).rules() == ("associativity",):
                return InverseCategory(bad, ic.inverse)
    raise AssertionError("no redirected entry breaks associativity alone")


@pytest.fixture(scope="module")
def actions(z2, g2, i2) -> list:
    out = []
    for ic in (i2, g2, z2):
        out += [bernoulli_global(ic), canonical_self_action(ic), conjugation_action(ic)]
    out.append(bernoulli_global(i2, strict=True))
    for action in out[:3]:
        out.append(dataclasses.replace(action, ic=non_associative(action.ic)))
    return out


def test_action_reports_match_the_full_scans_untampered(actions):
    for action in actions:
        assert rows(validate_fibred(action)) == brute_fibred_violations(action)
        sym = fibred_to_symmetry(action)
        assert rows(validate_symmetry(sym)) == brute_symmetry_violations(sym)


@pytest.mark.parametrize("seed", range(12))
def test_action_reports_match_the_full_scans_when_tampered(actions, seed):
    rng = random.Random(seed)
    for action in actions:
        for _ in range(3):
            broken = tampered_theta(action, rng)
            assert rows(validate_fibred(broken)) == brute_fibred_violations(broken)
            sym = tampered_isos(fibred_to_symmetry(action), rng)
            assert rows(validate_symmetry(sym)) == brute_symmetry_violations(sym)


def test_a_non_generator_alone_tampered_is_caught(i2):
    action = bernoulli_global(i2)
    gens = set(generators(i2.cat)) | set(i2.cat.identity.values())
    s = next(m for m in i2.morphisms if m not in gens and sum(k[0] == m for k in action.theta) > 1)
    (_, a), (_, b) = [k for k in sorted(action.theta) if k[0] == s][:2]
    theta = dict(action.theta)
    theta[(s, a)], theta[(s, b)] = theta[(s, b)], theta[(s, a)]
    broken = dataclasses.replace(action, theta=theta)
    assert not validate_fibred(broken).ok
    assert rows(validate_fibred(broken)) == brute_fibred_violations(broken)
    sym = fibred_to_symmetry(broken)
    assert not validate_symmetry(sym).ok
    assert rows(validate_symmetry(sym)) == brute_symmetry_violations(sym)


def test_symmetry_checks_compose_only_generators(monkeypatch):
    i3 = sub_inverse_monoid(list(PARTIAL_BIJECTIONS))
    sym = fibred_to_symmetry(bernoulli_global(i3))
    calls = 0
    composes_to = actions_module._composes_to

    def counting(s, t, st):
        nonlocal calls
        calls += 1
        return composes_to(s, t, st)

    monkeypatch.setattr(actions_module, "_composes_to", counting)
    assert validate_symmetry(sym).ok
    assert calls == len(generators(i3.cat)) * len(i3.morphisms) < len(i3.cat.table)


def test_strict_actions_take_the_full_loops(monkeypatch, i2):
    asked = []
    monkeypatch.setattr(actions_module, "associative_generators", lambda cat: asked.append(cat))
    strict = bernoulli_global(i2, strict=True)
    assert rows(validate_fibred(strict)) == brute_fibred_violations(strict) != []
    assert asked == []
    validate_fibred(bernoulli_global(i2))
    assert asked == [i2.cat]


@pytest.fixture(scope="module")
def bundles(z2, g2, i2) -> list:
    out = []
    for ic in (i2, g2, z2):
        out += [bernoulli_partial(ic), bernoulli_partial(ic, strict=True)]
        out.append(symmetry_to_partial(fibred_to_symmetry(bernoulli_global(ic))))
    return out


def test_partial_reports_match_the_full_scan_untampered(bundles):
    for bundle in bundles:
        assert rows(validate_partial(bundle)) == brute_partial_violations(bundle) == []


@pytest.mark.parametrize("seed", range(12))
def test_partial_reports_match_the_full_scan_when_tampered(bundles, seed):
    rng = random.Random(seed)
    for bundle in bundles:
        for _ in range(3):
            broken = tampered_bundle(bundle, rng)
            assert rows(validate_partial(broken)) == brute_partial_violations(broken)


def test_semidirect_product_of_a_tampered_bundle_raises_only_typed_errors(bundles):
    """Each D_s is read off θ_s, so no tampering of the maps reaches a
    lookup that the bundle does not back; a quarter of the tampered bundles
    also lose one map, which the shared totality check refuses.  The same
    holds for ``is_global`` and ``restrict_to_ideal``."""
    rng = random.Random(0)
    calls = (semidirect_product, PartialActionBundle.is_global, lambda b: restrict_to_ideal(b, b.poset.elements))
    for _ in range(60):
        for bundle in bundles:
            broken = tampered_bundle(bundle, rng)
            if rng.randrange(4) == 0:
                maps = dict(broken.maps)
                del maps[rng.choice(bundle.ic.morphisms)]
                broken = dataclasses.replace(broken, maps=maps)
            for call in calls:
                try:
                    call(broken)
                except ToolkitError:
                    pass


def test_a_bundle_without_a_map_is_refused_with_a_typed_error(g2):
    bundle = symmetry_to_partial(fibred_to_symmetry(bernoulli_global(g2)))
    maps = dict(bundle.maps)
    del maps["s"]
    broken = dataclasses.replace(bundle, maps=maps)
    calls = (semidirect_product, PartialActionBundle.is_global, lambda b: restrict_to_ideal(b, b.poset.elements))
    for call in calls:
        with pytest.raises(NotAFunctor) as info:
            call(broken)
        assert info.value.details == {"morphism": "s"}
    assert [v.rule for v in validate_partial(broken).violations] == ["bundle-total"]
    assert validate_partial(broken).violations[0].witness == ("s",)
