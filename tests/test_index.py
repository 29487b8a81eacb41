"""The category index and the join kernel against brute-force filters.

Every query is compared as an exact tuple, so the order it promises is
pinned too: declaration order for hom-sets, stars, costars, L/R-classes and
generalized inverses; name order for isotropy groups and idempotents.  The
categories the kernel joins are compared, typing and table, with the ones
``oracles.py`` builds from their definitions.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from invcat import (
    FiniteCategory,
    SizeCapExceeded,
    UndeclaredName,
    build_Iic,
    cauchy_completion,
    generalized_inverses,
    idempotents_at,
    poset_from_relation,
    restriction_groupoid,
    szendrei,
    validate_category,
)

import invcat.completion as completion_module
import invcat.poset as poset_module
from invcat.poset import antichain_poset
from oracles import (
    PARTIAL_BIJECTIONS,
    brute_completion_triples,
    brute_composable_pairs,
    brute_expansion,
    brute_groupoid_triples,
    brute_iic,
    brute_inverse_map,
    brute_split,
    join_by_product,
    partial_injection_categories,
    sub_inverse_monoid,
)
from test_poset_index import orders

FIXTURES = ("t1", "z2", "g2", "i2", "iic_point", "iic_chain2")
VARIANTS = ("global", "partial", "strict_global", "strict_partial")


@pytest.mark.parametrize("name", FIXTURES + ("iic_antichain2",) + tuple(f"sz_i2_{v}" for v in VARIANTS))
def test_index_matches_brute_filters(cases, name):
    ic = cases[name]
    cat, mors = ic.cat, ic.cat.morphisms
    inv = brute_inverse_map(cat)
    assert inv == ic.inverse
    dom = {m: cat.table[(inv[m], m)] for m in mors}
    ran = {m: cat.table[(m, inv[m])] for m in mors}
    idems = [m for m in mors if cat.table.get((m, m)) == m]
    for x in cat.objects:
        for y in cat.objects:
            want = tuple(m for m in mors if cat.src[m] == x and cat.tgt[m] == y)
            assert cat.hom(x, y) == want
        assert ic.star(x) == tuple(m for m in mors if cat.src[m] == x)
        assert ic.costar(x) == tuple(m for m in mors if cat.tgt[m] == x)
        want = tuple(sorted(e for e in idems if cat.src[e] == x))
        assert ic.idempotents_at(x) == want
        assert idempotents_at(ic, x) == want
        assert idempotents_at(cat, x) == want
    for e in idems:
        assert ic.r_class(e) == tuple(m for m in mors if ran[m] == e)
        assert ic.l_class(e) == tuple(m for m in mors if dom[m] == e)
        assert ic.isotropy(e) == tuple(sorted(m for m in mors if dom[m] == e == ran[m]))
    for s in mors:
        want = tuple(
            t
            for t in mors
            if (t, s) in cat.table
            and (s, t) in cat.table
            and cat.table.get((s, cat.table[(t, s)])) == s
            and cat.table.get((t, cat.table[(s, t)])) == t
        )
        assert generalized_inverses(cat, s) == want


@pytest.fixture(scope="module")
def joined(cases, completions) -> dict:
    """Every construction that goes through join_category, on every case."""
    out = {}
    for name, ic in cases.items():
        out[f"cauchy({name})"] = completions[name].ic.cat
        out[f"groupoid({name})"] = restriction_groupoid(ic).cat
        if name.startswith(("iic", "sz")):
            out[name] = ic.cat
    return out


def test_join_outputs_are_valid_with_exactly_the_composable_pairs(joined):
    assert len(joined) == 29
    for name, cat in joined.items():
        assert validate_category(cat).ok, name
        assert set(cat.table) == brute_composable_pairs(cat), name


def _cyclic(n: int, escape: bool = False):
    """Z_n as a one-object category built by the kernel; ``escape`` makes
    the product leave the declared arrows."""
    typing = {f"g{k}": ("*", "*") for k in range(n)}

    def product(g: str, f: str) -> str:
        k = int(g[1:]) + int(f[1:])
        return f"g{k if escape else k % n}"

    return join_by_product(["*"], typing, {"*": "g0"}, product, {f"g{k}": f"g{-k % n}" for k in range(n)})


def test_join_kernel_builds_a_group():
    ic = _cyclic(4)
    assert ic.inverse == {"g0": "g0", "g1": "g3", "g2": "g2", "g3": "g1"}
    assert len(ic.cat.table) == 16
    assert validate_category(ic.cat).ok


def test_join_kernel_rejects_a_composite_outside_the_arrows():
    with pytest.raises(UndeclaredName) as info:
        _cyclic(3, escape=True)
    # the first escape in table order: f = g1 is met before f = g2
    assert info.value.details == {"name": "g3"}
    assert info.value.message == "composition entry uses undeclared morphism 'g3'"


def test_build_reports_the_first_undeclared_name_in_table_order():
    composition = {
        ("1", "1"): "1",
        ("1", "q"): "1",  # q is met first, p sorts first
        ("p", "1"): "p",
    }
    with pytest.raises(UndeclaredName) as info:
        FiniteCategory.build(["X"], {"1": ("X", "X")}, {"X": "1"}, composition)
    assert info.value.details == {"name": "q"}
    assert info.value.message == "composition entry uses undeclared morphism 'q'"


def test_build_iic_composes_each_pair_of_isos_once(monkeypatch):
    """Iic(antichain 3) has 34 order isos between ideals and 8 ideals.  Its
    14,468 composable pairs are composed as position codes: no composition
    of iso objects, and no iso object beyond the 34 found, the identity of
    each ideal and the unit."""
    made = 0
    post_init = poset_module.PartialOrderIso.__post_init__

    def counting(self):
        nonlocal made
        made += 1
        post_init(self)

    def refuse(t, s):
        raise AssertionError("build_Iic composed iso objects")

    monkeypatch.setattr(poset_module.PartialOrderIso, "__post_init__", counting)
    monkeypatch.setattr(poset_module, "compose_partial_isos", refuse)
    ic = build_Iic(antichain_poset(["a", "b", "c"]))
    assert len(ic.cat.table) == 14468
    assert made == 34 + 8 + 1


def test_build_iic_refuses_during_the_iso_walk(monkeypatch):
    """Antichain 6 has 64 ideals, so its empty iso alone gives 64² morphisms:
    a cap of 100 is passed after the first iso search, not after all 4,096.
    Antichain 3 has 286 morphisms, the count the walk must reach exactly."""
    calls = 0
    search = poset_module.order_isos_between

    def counting(*args):
        nonlocal calls
        calls += 1
        return search(*args)

    monkeypatch.setattr(poset_module, "order_isos_between", counting)
    with pytest.raises(SizeCapExceeded) as info:
        build_Iic(antichain_poset("abcdef"), max_elements=100)
    assert calls == 1
    assert info.value.details == {"cap": 100}
    assert len(build_Iic(antichain_poset("abc"), max_elements=286).morphisms) == 286
    with pytest.raises(SizeCapExceeded):
        build_Iic(antichain_poset("abc"), max_elements=285)


def test_cauchy_completion_formats_each_name_once(monkeypatch):
    """Composites are looked up, so the names formatted are at most one per
    arrow and one per object of the completion, not one per composable pair."""
    ic = build_Iic(antichain_poset(["a", "b", "c"]))
    calls = 0

    def counting(fn):
        def wrapped(*args):
            nonlocal calls
            calls += 1
            return fn(*args)

        return wrapped

    for name in ("_object_name", "_morphism_name"):
        monkeypatch.setattr(completion_module, name, counting(getattr(completion_module, name)))
    cc = cauchy_completion(ic)
    assert len(cc.ic.cat.table) == 127854
    assert 0 < calls <= len(cc.ic.morphisms) + len(cc.ic.objects)


def test_index_is_built_once_in_declaration_order():
    cat = FiniteCategory.build(
        ["X", "Y"],
        {"b": ("X", "Y"), "1X": ("X", "X"), "a": ("X", "Y"), "1Y": ("Y", "Y")},
        {"X": "1X", "Y": "1Y"},
        {},
    )
    assert cat.hom("X", "Y") == ("b", "a")
    assert cat.hom("Y", "X") == ()
    assert cat.endo("X") == ("1X",)


def _typed(cat: FiniteCategory) -> tuple[dict, dict]:
    return {m: (cat.src[m], cat.tgt[m]) for m in cat.morphisms}, cat.table


@settings(max_examples=15, deadline=None)
@given(st.lists(st.sampled_from(PARTIAL_BIJECTIONS), min_size=1, max_size=3))
def test_joined_tables_match_their_definitions_on_sub_inverse_monoids_of_i3(generators):
    """(x, s)(y, t) = (x, st) in the four expansions, and
    (f, t, g)(e, s, f) = (e, ts, g) in the completion and the groupoid."""
    monoid = sub_inverse_monoid(generators)
    for variant in VARIANTS:
        sz = szendrei(monoid, variant)
        assert _typed(sz.ic.cat) == brute_expansion(sz), variant
    completed = cauchy_completion(monoid).ic.cat
    assert _typed(completed) == brute_split(monoid, brute_completion_triples(monoid))
    groupoid = restriction_groupoid(monoid).cat
    assert _typed(groupoid) == brute_split(monoid, brute_groupoid_triples(monoid))


@settings(max_examples=15, deadline=None)
@given(partial_injection_categories())
def test_completions_and_groupoids_match_their_definitions_on_partial_injection_categories(ic):
    """On several objects each object's source bucket numbers its arrows
    apart, so the rows are read at places that differ from the names'."""
    completed = cauchy_completion(ic).ic.cat
    assert _typed(completed) == brute_split(ic, brute_completion_triples(ic))
    groupoid = restriction_groupoid(ic).cat
    assert _typed(groupoid) == brute_split(ic, brute_groupoid_triples(ic))


@settings(max_examples=12, deadline=None)
@given(orders(most=4))
def test_build_iic_matches_its_definition_on_random_posets(order):
    poset = poset_from_relation(*order)
    assert _typed(build_Iic(poset).cat) == brute_iic(poset)
