"""The category index and the join kernel against brute-force filters.

Every query is compared as an exact tuple, so the order it promises is
pinned too: declaration order for hom-sets, stars, costars, L/R-classes and
generalized inverses; name order for isotropy groups and idempotents.
"""

from __future__ import annotations

import pytest

from invcat import (
    FiniteCategory,
    UndeclaredName,
    antichain2_poset,
    build_Iic,
    cauchy_completion,
    generalized_inverses,
    idempotents_at,
    join_category,
    restriction_groupoid,
    validate_category,
)

from oracles import brute_composable_pairs, brute_inverse_map

FIXTURES = ("t1", "z2", "g2", "i2", "iic_point", "iic_chain2")
VARIANTS = ("global", "partial", "strict_global", "strict_partial")


@pytest.fixture(scope="module")
def cases(request, expansions) -> dict:
    """Every fixture, Iic of chain2 and antichain2, the four expansions of I2."""
    out = {name: request.getfixturevalue(name) for name in FIXTURES}
    out["iic_antichain2"] = build_Iic(antichain2_poset())
    for variant in VARIANTS:
        out[f"sz_i2_{variant}"] = expansions[("i2", variant)].ic
    return out


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
def joined(cases) -> dict:
    """Every construction that goes through join_category, on every case."""
    out = {}
    for name, ic in cases.items():
        out[f"cauchy({name})"] = cauchy_completion(ic).ic.cat
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

    return join_category(["*"], typing, {"*": "g0"}, product)


def test_join_kernel_builds_a_group():
    ic = _cyclic(4)
    assert ic.inverse == {"g0": "g0", "g1": "g3", "g2": "g2", "g3": "g1"}
    assert len(ic.cat.table) == 16
    assert validate_category(ic.cat).ok


def test_join_kernel_rejects_a_composite_outside_the_arrows():
    with pytest.raises(UndeclaredName):
        _cyclic(3, escape=True)


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
