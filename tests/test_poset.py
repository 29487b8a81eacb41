"""Posets, ideals, partial order isomorphisms, and the ideal category."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

from invcat import (
    PartialOrderIso,
    Poset,
    PreconditionFailed,
    SizeCapExceeded,
    build_Iic,
    chain2_poset,
    chain_poset,
    ideals,
    is_ideal,
    order_isos_between,
    point_poset,
    find_inverse_structure,
    poset_from_function,
    poset_from_relation,
    validate_category,
)
from invcat.poset import (
    antichain_poset,
    compose_partial_isos,
    identity_iso,
    subset_name,
)

from oracles import brute_ideals, brute_order_isos, iic_morphism_data


def diamond() -> Poset:
    order = {("0", "a"), ("0", "b"), ("0", "1"), ("a", "1"), ("b", "1")}
    return poset_from_function(
        ("0", "a", "b", "1"), lambda x, y: x == y or (x, y) in order
    )


def test_poset_rejects_broken_relations():
    with pytest.raises(PreconditionFailed, match="antisymmetric"):
        poset_from_relation(("a", "b"), frozenset({("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")}))
    with pytest.raises(PreconditionFailed, match="reflexive"):
        poset_from_relation(("a", "b"), frozenset({("a", "b"), ("b", "b")}))


# Run under ``python -O``, where ``assert`` statements are stripped: the
# poset and order-iso checks must still raise their typed error, and the
# validators built on them must still report.
OPTIMISED_CHECKS = textwrap.dedent(
    """
    import dataclasses
    from invcat import (
        PartialOrderIso, PreconditionFailed, bernoulli_global, bernoulli_partial, chain2_poset,
        cyclic_group_2, fibred_to_symmetry, poset_from_relation, validate_partial, validate_symmetry,
    )

    def rejects(build):
        try:
            build()
        except PreconditionFailed as exc:
            return exc.code, exc.details.get("failure", exc.message)
        return None

    print(rejects(lambda: poset_from_relation(("a", "b"), frozenset({("a", "b"), ("b", "b")}))))
    print(rejects(lambda: PartialOrderIso.make(chain2_poset(), [("a", "b"), ("b", "a")])))
    z2 = cyclic_group_2()
    bundle = bernoulli_partial(z2)
    flip = PartialOrderIso((("{e,g}", "{e}"), ("{e}", "{e,g}")))
    report = validate_partial(dataclasses.replace(bundle, maps={**bundle.maps, "e": flip}))
    print(report.violations[0].rule, report.violations[0].witness)
    sym = fibred_to_symmetry(bernoulli_global(z2))
    report = validate_symmetry(dataclasses.replace(sym, isos={**sym.isos, "e": flip}))
    print(report.violations[0].rule, report.violations[0].witness)
    """
)


def test_checks_hold_under_python_O():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMISED_CHECKS], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.splitlines() == [
        "('PRECONDITION_FAILED', 'relation not reflexive')",
        "('PRECONDITION_FAILED', ('mapping does not preserve and reflect order', ('a', 'b'), ('b', 'a')))",
        "axiom-i ('e',)",
        "iso-order ('e',)",
    ]


def test_ideals_match_brute_force():
    for poset in (point_poset(), chain2_poset(), chain_poset("abc"), antichain_poset("ab"), diamond()):
        expected = brute_ideals(poset.elements, poset.leq)
        assert set(ideals(poset)) == expected
        for subset in expected:
            assert is_ideal(poset, subset)
    assert not is_ideal(chain2_poset(), {"b"})
    assert len(ideals(diamond())) == 6


def test_ideals_are_sorted_small_to_large():
    sizes = [len(i) for i in ideals(diamond())]
    assert sizes == sorted(sizes)


def test_subset_name():
    assert subset_name(()) == "{}"
    assert subset_name(("b", "a")) == "{a,b}"


def test_partial_order_iso_validation():
    chain = chain2_poset()
    iso = PartialOrderIso.make(chain, [("a", "b")])
    assert iso.apply("a") == "b"
    assert iso.inverse().apply("b") == "a"
    with pytest.raises(PreconditionFailed):
        PartialOrderIso.make(chain, [("a", "b"), ("b", "a")])  # reverses the order
    with pytest.raises(PreconditionFailed) as err:
        PartialOrderIso.make(chain, [("a", "a"), ("b", "a")])
    assert err.value.details == {"failure": "mapping not injective"}
    with pytest.raises(PreconditionFailed) as err:
        PartialOrderIso.make(chain, [("b", "b"), ("ghost", "ghost2")])  # points outside
    assert err.value.details == {"failure": ("point outside the poset", "ghost")}
    assert err.value.message == "not an order isomorphism: ('point outside the poset', 'ghost')"


def test_compose_partial_isos_takes_largest_domain():
    chain = chain_poset("abc")
    up = PartialOrderIso.make(chain, [("a", "b"), ("b", "c")])
    down = up.inverse()
    both = compose_partial_isos(down, up)
    assert both.dom == frozenset({"a", "b"})
    assert all(both.apply(x) == x for x in ("a", "b"))
    ident = identity_iso(("a",))
    assert compose_partial_isos(up, ident).dom == frozenset({"a"})


def test_order_isos_match_permutation_search():
    poset = diamond()
    for dom in ideals(poset):
        for ran in ideals(poset):
            found = order_isos_between(poset, dom, ran)
            expected = brute_order_isos(tuple(dom), tuple(ran), poset.leq)
            assert len(found) == len(expected)
            assert {tuple(sorted(i.pairs)) for i in found} == {
                tuple(sorted(f.items())) for f in expected
            }


def test_ideal_category_counts():
    one = build_Iic(point_poset())
    assert (len(one.objects), len(one.morphisms)) == (2, 5)
    two = build_Iic(chain2_poset())
    assert (len(two.objects), len(two.morphisms)) == (3, 14)
    assert validate_category(two.cat).ok
    top = subset_name(("a", "b"))
    # self-maps of the full ideal: empty map, partial identity on {a}, identity
    assert len(two.cat.hom(top, top)) == 3


def test_ideal_category_respects_cap():
    with pytest.raises(SizeCapExceeded):
        build_Iic(chain2_poset(), max_elements=5)


def test_iic_morphism_roundtrip():
    two = build_Iic(chain2_poset())
    for m in two.morphisms:
        dom, ran, pairs = iic_morphism_data(m)
        assert two.src(m) == dom and two.tgt(m) == ran
        assert all(isinstance(p, tuple) and len(p) == 2 for p in pairs)


def test_iic_validates_as_inverse_category(iic_point, iic_chain2):
    for iic in (iic_point, iic_chain2):
        assert validate_category(iic.cat).ok
        assert find_inverse_structure(iic.cat).inverse == iic.inverse


def test_iic_domain_equals_domain_of_inverse_composite(iic_chain2):
    # the domain of f coincides with the domain of f⁻¹f, which fixes it
    for f in iic_chain2.morphisms:
        _, _, graph = iic_morphism_data(f)
        idem = iic_chain2.compose(iic_chain2.inv(f), f)
        _, _, idem_graph = iic_morphism_data(idem)
        assert set(idem_graph) == {(x, x) for (x, _) in graph}
