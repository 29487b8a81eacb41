"""Certified inverses and subsets coded as bitmasks.

Every derived category names its inverses from its construction, and
``core.certified_inverse_structure`` accepts them on the certificate
s·s°·s = s, s°·s·s° = s° and commuting idempotents at each object; the
search of ``find_inverse_structure`` runs only when the certificate fails.
The tests check that the certified map is the searched one, that the
constructions never search, and that a wrong claim (a tampered spec
declaration, a non-inverse band, a wrong base inverse) ends exactly as a
search alone would.  The Bernoulli carriers code subsets as bitmasks; ``act``,
``pseudo_product`` and ``wedge`` are checked against their set definitions.
"""

from __future__ import annotations

import contextlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import invcat.cli as cli
import invcat.core as core
from invcat import (
    FiniteCategory,
    build_Iic,
    cauchy_completion,
    certified_inverse_structure,
    find_inverse_structure,
    pseudo_product,
    restriction_groupoid,
    save_category,
    szendrei,
    wedge,
)
from invcat.errors import NotComposable, NotIdempotent, NotInverseCategory, UndeclaredName
from invcat.expansion import VARIANTS
from invcat.poset import antichain_poset, chain_poset, subset_name

from oracles import PARTIAL_BIJECTIONS, join_by_product, partial_injection_categories, sub_inverse_monoid

FIXTURES = ("t1", "z2", "g2", "i2")


@contextlib.contextmanager
def counted_searches():
    """Count the calls of ``core.generalized_inverses``, the search's
    per-morphism step, while the block runs."""
    calls = [0]
    search = core.generalized_inverses

    def counting(cat, s):
        calls[0] += 1
        return search(cat, s)

    core.generalized_inverses = counting
    try:
        yield calls
    finally:
        core.generalized_inverses = search


def derived(ic) -> dict:
    """The constructions that go through the join kernel, over ``ic``."""
    out = {f"szendrei:{v}": szendrei(ic, v).ic for v in VARIANTS}
    out["cauchy_completion"] = cauchy_completion(ic).ic
    out["restriction_groupoid"] = restriction_groupoid(ic)
    return out


def assert_searched_map(ic) -> None:
    """``ic.inverse`` is the map the search finds, item for item."""
    assert list(ic.inverse.items()) == list(find_inverse_structure(ic.cat).inverse.items())


def rejoin(ic, inverse):
    """``ic`` rebuilt by the join kernel over its own table, claiming
    ``inverse`` as the base inverse map."""
    cat = ic.cat
    return join_by_product(
        cat.objects,
        {m: (cat.src[m], cat.tgt[m]) for m in cat.morphisms},
        cat.identity,
        lambda g, f: cat.table[(g, f)],
        inverse,
    )


def wrong_inverses(mors, right: dict, rng: random.Random) -> list[dict]:
    """Seeded wrong claims on the arrows ``mors`` with the inverse map
    ``right``: one value changed, one entry dropped, one value outside the
    arrows, all values rotated."""
    mors = list(mors)
    changed, dropped, ghost = dict(right), dict(right), dict(right)
    s = rng.choice(mors)
    changed[s] = rng.choice(mors)
    del dropped[rng.choice(mors)]
    ghost[s] = "ghost"
    rotated = dict(zip(mors, [right[m] for m in mors[1:] + mors[:1]]))
    return [changed, dropped, ghost, rotated]


# ---------------------------------------------------------------------------
# the constructions certify and never search


def test_constructions_make_no_search(request):
    fixtures = [request.getfixturevalue(name) for name in FIXTURES]
    with counted_searches() as calls:
        for ic in fixtures:
            derived(ic)
        build_Iic(antichain_poset("abc"))
        build_Iic(chain_poset("abcd"))
    assert calls[0] == 0


def test_certificate_equals_the_search_on_fixtures_and_their_constructions(request):
    for name in FIXTURES:
        ic = request.getfixturevalue(name)
        with counted_searches() as calls:
            certified = certified_inverse_structure(ic.cat, ic.inverse)
            built = [*derived(ic).values(), build_Iic(antichain_poset("ab"))]
        assert calls[0] == 0, name
        for each in (certified, *built):
            assert_searched_map(each)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.sampled_from(PARTIAL_BIJECTIONS), min_size=1, max_size=3))
def test_certificate_equals_the_search_on_sub_inverse_monoids_of_i3(generators):
    with counted_searches() as calls:
        monoid = sub_inverse_monoid(generators)
        built = derived(monoid)
    assert calls[0] == 0
    for ic in (monoid, *built.values()):
        assert_searched_map(ic)


@settings(max_examples=12, deadline=None)
@given(partial_injection_categories(), st.randoms(use_true_random=False))
def test_certificate_equals_the_search_on_partial_injection_categories(ic, rng):
    with counted_searches() as calls:
        rejoin(ic, ic.inverse)
        built = derived(ic)
    assert calls[0] == 0
    for each in (ic, *built.values()):
        assert_searched_map(each)
    # a wrong base inverse costs a search and changes nothing
    for claim in wrong_inverses(ic.morphisms, ic.inverse, rng):
        assert rejoin(ic, claim).inverse == ic.inverse


# ---------------------------------------------------------------------------
# a failed certificate ends as the search does


def left_zero_band() -> FiniteCategory:
    """1, a, b on one object with xy = x for x ≠ 1: a monoid whose every
    arrow is regular (a·a·a = a) but whose idempotents a, b do not
    commute, so a has two generalized inverses."""
    names = ("1", "a", "b")
    table = {(g, f): f if g == "1" else g for g in names for f in names}
    return FiniteCategory.build(["*"], {m: ("*", "*") for m in names}, {"*": "1"}, table)


def test_the_left_zero_band_fails_the_certificate_as_the_search_does():
    band = left_zero_band()
    with pytest.raises(NotInverseCategory) as searched:
        find_inverse_structure(band)
    assert searched.value.details == {"morphism": "a", "count": 2, "candidates": ("a", "b")}
    claim = {m: m for m in band.morphisms}  # passes both regularity laws
    with pytest.raises(NotInverseCategory) as certified:
        certified_inverse_structure(band, claim)
    assert str(certified.value) == str(searched.value)
    typing = {m: ("*", "*") for m in band.morphisms}
    with pytest.raises(NotInverseCategory) as joined:
        join_by_product(["*"], typing, {"*": "1"}, lambda g, f: band.table[(g, f)], claim)
    assert str(joined.value) == str(searched.value)


@pytest.mark.parametrize("seed", range(4))
def test_a_wrong_base_inverse_gives_the_searched_map(request, seed):
    rng = random.Random(seed)
    for name in FIXTURES:
        ic = request.getfixturevalue(name)
        for claim in wrong_inverses(ic.morphisms, ic.inverse, rng):
            assert list(rejoin(ic, claim).inverse.items()) == list(ic.inverse.items())


def _report(capsys, *argv: str) -> tuple[int, str]:
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("seed", range(6))
def test_a_tampered_declared_inverse_gives_the_report_of_the_search(request, tmp_path, capsys, monkeypatch, seed):
    """validate and cauchy on a spec whose ``"inverse"`` is right, wrong,
    partial, widened or absent print what a search alone prints."""
    rng = random.Random(seed)
    cases = [(name, ic.cat, ic.inverse) for name, ic in ((n, request.getfixturevalue(n)) for n in FIXTURES)]
    band = left_zero_band()
    cases.append(("band", band, {m: m for m in band.morphisms}))
    commands = []
    for name, cat, right in cases:
        claims = [right, None, *wrong_inverses(cat.morphisms, right, rng), {**right, "ghost": rng.choice(cat.morphisms)}]
        for k, claim in enumerate(claims):
            path = tmp_path / f"{name}_{k}.json"
            save_category(str(path), cat, claim)
            commands += [("validate", str(path)), ("cauchy", str(path))]
    with counted_searches() as calls:
        certified = [_report(capsys, *argv) for argv in commands]
    monkeypatch.setattr(cli, "certified_inverse_structure", lambda cat, _claim: find_inverse_structure(cat))
    searched = [_report(capsys, *argv) for argv in commands]
    assert certified == searched
    assert calls[0] > 0  # the wrong claims fell back to the search
    violations = [v for _, out in certified for v in json.loads(out).get("violations", [])]
    assert "inverse-declaration: declared inverse map differs from the computed one" in violations
    assert any(v.startswith("NOT_INVERSE_CATEGORY: morphism 'a' has 2") for v in violations)


def test_a_right_declaration_is_certified_without_a_search(request, tmp_path, capsys):
    for name in FIXTURES:
        ic = request.getfixturevalue(name)
        path = tmp_path / f"{name}.json"
        save_category(str(path), ic.cat, ic.inverse)
        with counted_searches() as calls:
            for command in ("validate", "cauchy"):
                code, out = _report(capsys, command, str(path))
                assert code == 0 and json.loads(out)["violations"] == []
        assert calls[0] == 0, name


# ---------------------------------------------------------------------------
# bitmask subsets against their set definitions


def _set_product(sz, a: str, b: str) -> tuple[str, str]:
    """(A,s) ⋆ (B,t) = (s·iε(B)·s°·A ∪ iε(A)·s·B, st) on member sets: the
    subset's name and st."""
    (akey, s), (bkey, t) = sz.pair(a), sz.pair(b)
    table, elements, inv = sz.origin.cat.table, sz.carrier.elements, sz.origin.inverse
    first, second = elements[akey], elements[bkey]
    conj = table[(table[(s, second.idem)], inv[s])]
    lead = table[(first.idem, s)]
    members = {table[(conj, m)] for m in first.members} | {table[(lead, m)] for m in second.members}
    return subset_name(members), table[(s, t)]


def test_act_equals_the_translate_of_the_members(expansions):
    for sz in expansions.values():
        bp, table = sz.carrier, sz.origin.cat.table
        for key, elt in bp.elements.items():
            for s in sz.origin.star(elt.obj):
                assert bp.act(s, key) == subset_name({table[(s, m)] for m in elt.members})


def test_pseudo_product_and_wedge_equal_their_set_definitions(expansions):
    for sz in expansions.values():
        arrows = sz.ic.morphisms
        for a in arrows:
            for b in arrows:
                if (sz.pair(a)[1], sz.pair(b)[1]) not in sz.origin.cat.table:
                    with pytest.raises(NotComposable):
                        pseudo_product(sz, a, b)
                    continue
                subset, st_ = _set_product(sz, a, b)
                name = f"({subset}|{st_})"
                if name in sz.arrows:
                    assert pseudo_product(sz, a, b) == name
                else:  # the product leaves the arrows of a strict variant
                    with pytest.raises(UndeclaredName) as info:
                        pseudo_product(sz, a, b)
                    assert info.value.details == {"subset": subset, "morphism": st_}
                idempotent = all(sz.ic.is_idempotent(x) for x in (a, b))
                if idempotent:
                    assert wedge(sz, a, b) == pseudo_product(sz, a, b)
                else:
                    with pytest.raises(NotIdempotent):
                        wedge(sz, a, b)
