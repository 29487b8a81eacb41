"""Properties over random multi-object inverse categories.

``oracles.partial_injection_categories`` draws inverse categories of
partial injections between two or three small sets, so the constructions
that the one-object sub-inverse-monoids of I_3 never reach (several
objects, arrows between different sets) meet random inputs here.  Each
property compares the library with its oracle or with a second route to
the same structure.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from invcat import (
    bernoulli_global,
    bernoulli_partial,
    certified_inverse_structure,
    dump_category,
    fibred_to_symmetry,
    parse_category,
    projection,
    restrict_to_ideal,
    symmetry_to_partial,
    szendrei,
    validate_functor,
    validate_partial,
)
from invcat.bernoulli import build_bernoulli
from invcat.expansion import VARIANTS

from oracles import brute_expansion, brute_partial_violations, partial_injection_categories


@settings(max_examples=100, deadline=None)
@given(partial_injection_categories(), st.booleans())
def test_pointed_bundles_pass_their_axioms(ic, strict):
    bundle = bernoulli_partial(ic, strict)
    report = validate_partial(bundle)
    assert report.ok, report.summary()
    assert brute_partial_violations(bundle) == []


@settings(max_examples=100, deadline=None)
@given(partial_injection_categories())
def test_cutting_the_global_bundle_to_the_pointed_carrier_gives_the_partial_bundle(ic):
    bundle = symmetry_to_partial(fibred_to_symmetry(bernoulli_global(ic)))
    cut = restrict_to_ideal(bundle, build_bernoulli(ic, pointed=True).elements)
    direct = bernoulli_partial(ic)
    assert cut.poset.elements == direct.poset.elements
    assert cut.poset.relation == direct.poset.relation
    assert cut.maps == direct.maps


@settings(max_examples=60, deadline=None)
@given(partial_injection_categories())
def test_expansions_match_their_definitions(ic):
    for variant in VARIANTS:
        sz = szendrei(ic, variant)
        cat = sz.ic.cat
        typed = {m: (cat.src[m], cat.tgt[m]) for m in cat.morphisms}
        assert (typed, cat.table) == brute_expansion(sz), variant


@settings(max_examples=30, deadline=None)
@given(partial_injection_categories())
def test_projection_is_a_functor(ic):
    # a strict identity (x, iρ(x)) projects to an idempotent, not an identity
    for variant in VARIANTS:
        rules = set(validate_functor(projection(szendrei(ic, variant))).rules())
        assert rules <= ({"functor-identity"} if variant.startswith("strict") else set()), variant


@settings(max_examples=40, deadline=None)
@given(partial_injection_categories())
def test_spec_files_round_trip(ic):
    for want in (ic, *(szendrei(ic, variant).ic for variant in VARIANTS)):
        cat, inverse = parse_category(dump_category(want.cat, want.inverse))
        assert cat.objects == want.cat.objects
        assert cat.morphisms == want.cat.morphisms
        assert (cat.src, cat.tgt) == (want.cat.src, want.cat.tgt)
        assert cat.identity == want.cat.identity
        assert cat.table == want.cat.table
        assert inverse == want.inverse
        assert certified_inverse_structure(cat, inverse).inverse == want.inverse
