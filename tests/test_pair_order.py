"""A partial order isomorphism is its set of pairs.

Two isomorphisms are equal exactly when they are the same map, whatever
order their pairs arrive in.  Every isomorphism of the Bernoulli actions is
rebuilt here from its pairs reversed; the rebuilt actions must be equal to
the untouched ones and get the same verdicts from every validator and
converter.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings

from invcat import (
    PartialOrderIso,
    bernoulli_global,
    bernoulli_partial,
    fibred_to_symmetry,
    symmetry_to_partial,
    validate_partial,
    validate_symmetry,
)
from invcat.expansion import semidirect_product

from oracles import partial_injection_categories


def rows(report) -> list[tuple[str, tuple, str]]:
    return [(v.rule, v.witness, v.detail) for v in report.violations]


def reversed_isos(isos: dict[str, PartialOrderIso]) -> dict[str, PartialOrderIso]:
    """Each isomorphism rebuilt from its pairs in reverse order."""
    out = {s: PartialOrderIso(tuple(reversed(iso.pairs))) for s, iso in isos.items()}
    for s, iso in isos.items():
        assert out[s] == iso and hash(out[s]) == hash(iso), s
    return out


def product(bundle) -> tuple:
    """What ``semidirect_product`` builds, as comparable data."""
    inv, arrows = semidirect_product(bundle)
    cat = inv.cat
    return arrows, cat.objects, cat.morphisms, cat.identity, cat.table, inv.inverse


def check_pair_order_changes_nothing(ic) -> None:
    sym = fibred_to_symmetry(bernoulli_global(ic))
    shuffled = dataclasses.replace(sym, isos=reversed_isos(sym.isos))
    assert rows(validate_symmetry(shuffled)) == rows(validate_symmetry(sym))
    converted = symmetry_to_partial(sym)
    assert symmetry_to_partial(shuffled).maps == converted.maps
    for bundle in (bernoulli_partial(ic), converted):
        rebuilt = dataclasses.replace(bundle, maps=reversed_isos(bundle.maps))
        assert rows(validate_partial(rebuilt)) == rows(validate_partial(bundle))
        assert product(rebuilt) == product(bundle)


def test_an_iso_stores_its_pairs_sorted():
    iso = PartialOrderIso((("b", "a"), ("a", "b")))
    assert iso.pairs == (("a", "b"), ("b", "a"))
    assert iso == PartialOrderIso(iter(iso.pairs)) and hash(iso) == hash(PartialOrderIso(iso.pairs))
    assert (iso.dom, iso.ran, iso.point_map) == ({"a", "b"}, {"a", "b"}, {"a": "b", "b": "a"})
    assert iso.apply("b") == "a"
    assert iso.inverse() == iso


def test_reversed_pairs_change_no_verdict_on_the_fixtures(t1, z2, g2, i2):
    for ic in (t1, z2, g2, i2):
        check_pair_order_changes_nothing(ic)


@settings(max_examples=15, deadline=None)
@given(partial_injection_categories())
def test_reversed_pairs_change_no_verdict(ic):
    check_pair_order_changes_nothing(ic)
