"""The order theorems behind ``natural_leq`` and ``product_order_leq``.

``natural_leq`` evaluates one characterisation of s ≤ t (s = ss°t), and
``product_order_leq`` is the plain componentwise test.  These tests pin the
two facts that let them stay that simple, against the brute-force
recomputation in oracles.py: in an inverse category the four usual
characterisations of the natural order agree (Lawson, *Inverse Semigroups*,
1998, ch. 1), and the natural order of an expansion refines its product
order.  The idempotent order that the constructions read from
``InverseCategory.idempotents_below`` and ``idempotents_above`` is pinned
the same way, with the theorem (ab)°ab ≤ b°b that lets ``validate_fibred``
skip a check.  They run exhaustively on the fixtures, their expansions and
completions, and as property tests on random sub-inverse-monoids of I_3.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings, strategies as st

from invcat import (
    InverseCategory,
    SzCategory,
    canonical_self_action,
    cauchy_completion,
    conjugation_action,
    natural_leq,
    natural_order_poset,
    product_order_leq,
    szendrei,
)
from invcat.completion import completion_size

from oracles import (
    PARTIAL_BIJECTIONS,
    brute_idempotents_above,
    brute_idempotents_below,
    brute_inverse_map,
    brute_natural_order_forms,
    sub_inverse_monoid,
)

FIXTURES = ("t1", "z2", "g2", "i2", "iic_point", "iic_chain2")


def check_natural_order(ic: InverseCategory) -> None:
    """On every parallel pair the four characterisations agree with each
    other and with ``natural_leq``."""
    for (s, t), forms in brute_natural_order_forms(ic.cat, ic.inverse).items():
        assert forms == (natural_leq(ic, s, t),) * 4, (s, t, forms)


def check_refinement(sz: SzCategory) -> None:
    """Every parallel pair in the natural order of the expansion is in the
    product order."""
    for u, v in brute_natural_order_forms(sz.ic.cat, sz.ic.inverse):
        if natural_leq(sz.ic, u, v):
            assert product_order_leq(sz, u, v), (u, v)


def check_idempotent_order(ic: InverseCategory) -> None:
    """``idempotents_below`` and ``idempotents_above`` of every arrow equal
    the brute filters as exact tuples, and ``completion_size`` counts the
    arrows of the completion built from them."""
    for m in ic.morphisms:
        assert ic.idempotents_below(m) == brute_idempotents_below(ic.cat, m), m
        assert ic.idempotents_above(m) == brute_idempotents_above(ic.cat, m), m
    assert completion_size(ic) == len(cauchy_completion(ic).ic.morphisms)


def check_domain_inclusion(ic: InverseCategory) -> None:
    """(ab)°ab ≤ b°b on every composable pair, with the inverses searched
    by brute force."""
    table, inv = ic.cat.table, brute_inverse_map(ic.cat)
    dom = {m: table[(inv[m], m)] for m in ic.morphisms}
    for (a, b), ab in table.items():
        assert table[(dom[b], dom[ab])] == dom[ab], (a, b)


@pytest.fixture(scope="module")
def all_expansions(t1, expansions) -> dict[tuple[str, str], SzCategory]:
    """The twelve shared expansions plus the global expansion of t1."""
    return {**expansions, ("t1", "global"): szendrei(t1, "global")}


def test_natural_order_characterisations_agree(request, all_expansions):
    for name in FIXTURES:
        check_natural_order(request.getfixturevalue(name))
    for sz in all_expansions.values():
        check_natural_order(sz.ic)


def test_natural_order_refines_product_order(all_expansions):
    for sz in all_expansions.values():
        check_refinement(sz)


def test_idempotent_order_matches_brute_filters(cases, completions):
    for name, ic in cases.items():
        check_idempotent_order(ic)
        check_idempotent_order(completions[name].ic)


def test_inner_source_of_a_composite_lies_below_that_of_its_first_factor(cases, completions):
    for name, ic in cases.items():
        check_domain_inclusion(ic)
        check_domain_inclusion(completions[name].ic)


def test_canonical_actions_read_the_idempotent_order(monkeypatch):
    """The natural order poset and the two canonical actions of the strict
    partial expansion of I_3 (473 arrows) run no order predicate: the
    relation and the admissible pairs are read from ``idempotents_below``."""
    sz = szendrei(sub_inverse_monoid(list(PARTIAL_BIJECTIONS)), "strict_partial")
    assert len(sz.ic.morphisms) == 473
    calls = 0

    def counting(fn):
        def wrapped(*args):
            nonlocal calls
            calls += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(InverseCategory, "leq_idem", counting(InverseCategory.leq_idem))
    for module in [m for name, m in sys.modules.items() if name.startswith("invcat")]:
        for name in ("natural_leq", "poset_from_function"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
    natural_order_poset(sz.ic)
    canonical_self_action(sz.ic)
    conjugation_action(sz.ic)
    assert calls == 0


# ---------------------------------------------------------------------------
# random sub-inverse-monoids of I_3


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(PARTIAL_BIJECTIONS), min_size=1, max_size=3))
def test_order_theorems_on_random_sub_inverse_monoids_of_i3(generators):
    monoid = sub_inverse_monoid(generators)
    check_natural_order(monoid)
    for ic in (monoid, cauchy_completion(monoid).ic):
        check_idempotent_order(ic)
        check_domain_inclusion(ic)
    for variant in ("strict_partial", "partial"):
        sz = szendrei(monoid, variant)
        check_natural_order(sz.ic)
        check_refinement(sz)
