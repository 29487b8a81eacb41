"""Expansions in output time: what ``szendrei`` skips, and the integer rows.

``szendrei`` reads each θ_{s°} off ``BernoulliPoset.graph`` and builds
neither the carrier's order, which the carrier derives on first read, nor
a ``PartialOrderIso`` per morphism.  ``inner_expansion`` stores the rows of
``BernoulliPoset.star_rows`` and names ``table`` on first read; its identity
is ({1_X}, 1_X), checked along one row and one column.
``validate_inverse_semigroup`` reads its table into integer rows and scans
in order only on failure.  Each is held against a brute-force reference.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from invcat import (
    PartialOrderIso,
    Poset,
    PreconditionFailed,
    SizeCapExceeded,
    SzCategory,
    inner_expansion,
    natural_leq,
    pseudo_product,
    szendrei,
    validate_inverse_semigroup,
)
from invcat.bernoulli import bernoulli_partial
from invcat.expansion import VARIANTS, product_order_leq, semidirect_product

from oracles import (
    brute_bernoulli_relation,
    brute_inverse_semigroup_violations,
    cyclic_group,
    partial_injection_categories,
)


def counting(monkeypatch, cls) -> list:
    """Patch ``cls.__init__`` to record each instance made."""
    made = []
    init = cls.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return made


def test_szendrei_builds_no_order_and_no_iso(monkeypatch, i2):
    posets, isos = counting(monkeypatch, Poset), counting(monkeypatch, PartialOrderIso)
    built = {v: szendrei(i2, v) for v in VARIANTS}
    assert (posets, isos) == ([], [])
    for sz in built.values():
        relation = brute_bernoulli_relation(i2.cat, sz.carrier.elements)
        names = list(sz.arrows)
        for a, b in itertools.product(names[::3], names[::2]):
            (akey, s), (bkey, t) = sz.arrows[a], sz.arrows[b]
            want = (akey, bkey) in relation and i2.cat.parallel(s, t) and natural_leq(i2, s, t)
            assert product_order_leq(sz, a, b) == want, (sz.variant, a, b)
    assert len(posets) == len(built) and isos == []  # one order per carrier, on first read


def test_a_map_listing_a_point_twice_is_refused(g2):
    bundle = bernoulli_partial(g2)
    (x, y), *_ = bundle.maps["s"].pairs
    others = [p for p in bundle.poset.elements if p != y]
    for pair, failure in (((x, others[0]), "mapping not functional"), ((others[0], y), "mapping not injective")):
        tampered = PartialOrderIso((*bundle.maps["s"].pairs, pair))
        broken = type(bundle)(bundle.ic, bundle.poset, {**bundle.maps, "s": tampered})
        with pytest.raises(PreconditionFailed, match=failure) as info:
            semidirect_product(broken)
        assert info.value.details == {"morphism": "s", "failure": failure}


def brute_identity(elements, table) -> str | None:
    return next((u for u in elements if all(table[(u, v)] == v == table[(v, u)] for v in elements)), None)


def assert_rows_are_star(sz: SzCategory, rng: random.Random, samples: int = 60) -> None:
    """On every inner expansion of ``sz`` under the cap: sampled entries of
    the rows are pseudo products, and the identity is the searched one."""
    for obj in sz.origin.objects:
        try:
            ie = inner_expansion(sz, obj, max_elements=4096)
        except SizeCapExceeded:
            continue
        elems, rows = ie.elements, ie.rows
        assert [len(row) for row in rows] == [len(elems)] * len(elems)
        for _ in range(samples):
            i, j = rng.randrange(len(elems)), rng.randrange(len(elems))
            assert elems[rows[i][j]] == pseudo_product(sz, elems[i], elems[j]), (sz.variant, obj, i, j)
        assert ie.identity == brute_identity(elems, ie.table), (sz.variant, obj)


def test_inner_rows_are_star_on_fixtures(expansions):
    rng = random.Random(7)
    for sz in expansions.values():
        assert_rows_are_star(sz, rng)


@settings(max_examples=20, deadline=None)
@given(partial_injection_categories(), st.randoms(use_true_random=False))
def test_inner_rows_are_star_on_partial_injection_categories(ic, rng):
    for variant in VARIANTS:
        assert_rows_are_star(szendrei(ic, variant), rng)


def test_the_pointed_identity_is_one_x(expansions):
    for (_, variant), sz in expansions.items():
        for obj in sz.origin.objects:
            one = sz.origin.identity_of(obj)
            if variant.endswith("partial"):
                assert inner_expansion(sz, obj).identity == f"({{{one}}}|{one})"


def test_table_is_named_on_first_read(expansions):
    ie = inner_expansion(expansions[("i2", "partial")], "*")
    assert "table" not in vars(ie)
    table = ie.table
    assert ie.table is table and len(table) == len(ie.elements) ** 2


@pytest.fixture(scope="module")
def prefix_tables():
    """The inner partial expansions of Z4 and Z5 (20 and 48 elements)."""
    return {n: inner_expansion(szendrei(cyclic_group(n), "partial"), "*") for n in (4, 5)}


def one_entry_tamperings(elements, table, rng: random.Random, count: int):
    """``count`` tables differing from ``table`` in one entry: another
    element, a name outside the set, or no entry."""
    keys = list(table)
    for k in range(count):
        key = rng.choice(keys)
        if k % 8 == 0:
            yield {**table, key: "outsider"}
        elif k % 8 == 1:
            yield {p: v for p, v in table.items() if p != key}
        else:
            yield {**table, key: rng.choice([e for e in elements if e != table[key]])}


@pytest.mark.parametrize("n, count", [(4, 120), (5, 24)])
def test_one_entry_tamperings_match_the_ordered_scan(prefix_tables, n, count):
    ie = prefix_tables[n]
    elements, table = ie.elements, ie.table
    assert validate_inverse_semigroup(elements, table).ok
    seen = set()
    for tampered in one_entry_tamperings(elements, table, random.Random(n), count):
        report = validate_inverse_semigroup(elements, tampered)
        rows = [(v.rule, v.witness, v.detail) for v in report.violations]
        assert rows and rows == brute_inverse_semigroup_violations(elements, tampered)
        seen.update(report.rules())
    assert {"semigroup-total", "semigroup-associative", "unique-inverse"} <= seen
