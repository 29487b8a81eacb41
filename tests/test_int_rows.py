"""Joined categories hold arrow numbers and name their table on first read.

``join_category`` stores each composite g∘f as an arrow number, in one row
per right arrow f.  The name-keyed ``cat.table`` is built from the rows the
first time it is read.  These tests pin that the named table lists the
pairs of ``oracles._join_pairs`` in the same order, that a composite outside
the arrows is reported for the first miss in that order, that the spec
writer reads the rows to the same bytes as the named table gives, and that
the constructions and ``expand --emit-spec`` never build the names.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

import invcat.cli as cli
import invcat.core as core
from invcat import (
    FiniteCategory,
    UndeclaredName,
    build_Iic,
    cauchy_completion,
    dump_category,
    restriction_groupoid,
    save_category,
    szendrei,
)
from invcat.expansion import VARIANTS
from invcat.poset import antichain_poset, chain_poset

from oracles import _join_pairs, join_by_product, partial_injection_categories


def joined(ic) -> dict:
    """Fresh categories built by the join kernel over ``ic``."""
    out = {f"szendrei:{v}": szendrei(ic, v).ic for v in VARIANTS}
    out["cauchy_completion"] = cauchy_completion(ic).ic
    out["restriction_groupoid"] = restriction_groupoid(ic)
    return out


def fixture_joins(request) -> dict:
    out = {}
    for name in ("t1", "z2", "g2", "i2"):
        out.update({f"{name}:{k}": v for k, v in joined(request.getfixturevalue(name)).items()})
    for poset in (antichain_poset("ab"), antichain_poset("abc"), chain_poset("abc")):
        out[f"build_Iic:{poset.elements}"] = build_Iic(poset)
    return out


def typing(cat: FiniteCategory) -> dict[str, tuple[str, str]]:
    return {m: (cat.src[m], cat.tgt[m]) for m in cat.morphisms}


def unnamed(cat: FiniteCategory) -> bool:
    return not isinstance(cat.table, dict)


def assert_rows_match_the_named_table(ic) -> None:
    """The spec writer on the rows, then the named table against the
    pairs of the definitions, in the join's order."""
    cat = ic.cat
    assert unnamed(cat)
    text = dump_category(cat, ic.inverse)
    assert unnamed(cat)
    table = cat.table
    assert list(table) == _join_pairs(typing(cat))
    assert cat.table is table.named() and isinstance(cat.table, dict)
    rebuilt = FiniteCategory.build(cat.objects, typing(cat), cat.identity, cat.table)
    assert text == dump_category(rebuilt, ic.inverse)
    assert [cat.morphisms[h] for row in cat.ints().rows for h in row] == list(cat.table.values())


def test_fixture_joins_name_their_table_in_the_join_order(request):
    for name, ic in fixture_joins(request).items():
        assert_rows_match_the_named_table(ic)


@settings(max_examples=12, deadline=None)
@given(partial_injection_categories())
def test_random_joins_name_their_table_in_the_join_order(ic):
    rebuilt = join_by_product(
        ic.objects, typing(ic.cat), ic.cat.identity, lambda g, f: ic.compose(g, f), ic.inverse
    )
    for each in (rebuilt, *joined(ic).values()):
        assert_rows_match_the_named_table(each)


@settings(max_examples=12, deadline=None)
@given(partial_injection_categories(), st.randoms(use_true_random=False))
def test_an_undeclared_composite_is_the_first_miss_in_table_order(ic, rng):
    """Drop one non-identity arrow that is a composite of two others; each
    pair that composes to it names a composite of its own, so the error
    shows which pair the kernel met first."""
    cat = ic.cat
    units = set(cat.identity.values())
    candidates = [m for m in cat.morphisms if m not in units]
    assume(candidates)
    drop = rng.choice(candidates)
    kept = {m: t for m, t in typing(cat).items() if m != drop}
    misses = [(g, f) for g, f in _join_pairs(kept) if ic.compose(g, f) == drop]
    assume(misses)

    def product(g: str, f: str) -> str:
        gf = ic.compose(g, f)
        return f"{g}*{f}" if gf == drop else gf

    try:
        join_by_product(cat.objects, kept, cat.identity, product, ic.inverse)
    except UndeclaredName as exc:
        assert exc.details == {"name": "*".join(misses[0])}
    else:
        raise AssertionError("the dropped composite was not reported")


def test_constructions_and_emit_spec_never_name_their_table(i2, tmp_path, monkeypatch, capsys):
    spec = tmp_path / "i2.json"
    save_category(str(spec), i2.cat, i2.inverse)
    named = []
    name = core._Unnamed.named
    monkeypatch.setattr(core._Unnamed, "named", lambda self: named.append(self) or name(self))
    built = joined(i2)
    built["build_Iic"] = build_Iic(antichain_poset("abc"))
    for variant in ("global", "strict-partial"):
        out = tmp_path / f"{variant}.json"
        assert cli.main(["expand", str(spec), "--variant", variant, "--emit-spec", str(out)]) == 0
    capsys.readouterr()
    assert named == []
    assert all(unnamed(ic.cat) for ic in built.values())
    # a name-keyed read builds the names once
    len(built["build_Iic"].cat.table)
    assert len(named) == 1 and not unnamed(built["build_Iic"].cat)
