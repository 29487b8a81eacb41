"""Joined categories hold arrow numbers and name their table on first read.

``join_category`` stores each composite g∘f as an arrow number, in one row
per right arrow f.  The name-keyed ``cat.table`` is built from the rows the
first time it is read.  These tests pin that the named table lists the
pairs of ``oracles._join_pairs`` in the same order, that a composite outside
the arrows is reported for the first miss in that order, that the spec
writer reads the rows to the same bytes as the named table gives, that
the constructions and ``expand --emit-spec`` never build the names, and
that the join reads a composite off the base rows only for base arrows
that compose.
"""

from __future__ import annotations

import dataclasses
import itertools

from hypothesis import assume, given, settings, strategies as st

import invcat.cli as cli
import invcat.core as core
from invcat import (
    FiniteCategory,
    ToolkitError,
    UndeclaredName,
    bernoulli_global,
    bernoulli_partial,
    build_Iic,
    cauchy_completion,
    dump_category,
    fibred_to_symmetry,
    restriction_groupoid,
    save_category,
    symmetry_to_partial,
    szendrei,
)
from invcat.expansion import VARIANTS, semidirect_product
from invcat.poset import PartialOrderIso, antichain_poset, chain_poset

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
    return isinstance(cat, core._Joined)


def assert_rows_match_the_named_table(ic) -> None:
    """The spec writer on the rows, then the named table against the
    pairs of the definitions, in the join's order."""
    cat = ic.cat
    assert unnamed(cat)
    text = dump_category(cat, ic.inverse)
    assert unnamed(cat)
    table = cat.table
    assert list(table) == _join_pairs(typing(cat))
    assert not unnamed(cat) and cat.table is table and isinstance(table, dict)
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


def test_an_unnamed_join_equals_its_named_twin(i2):
    """Comparing names the table first, from either side."""
    one, two, named = (szendrei(i2, "global").ic.cat for _ in range(3))
    len(named.table)
    assert unnamed(one) and unnamed(two) and not unnamed(named)
    assert one == named and named == two
    assert not unnamed(one) and not unnamed(two)


def test_constructions_and_emit_spec_never_name_their_table(i2, tmp_path, monkeypatch, capsys):
    spec = tmp_path / "i2.json"
    save_category(str(spec), i2.cat, i2.inverse)
    named = []
    name = core._Joined.__getattr__
    monkeypatch.setattr(core._Joined, "__getattr__", lambda cat, attr: named.append(attr) or name(cat, attr))
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


def single_pair_tamperings(bundle):
    """The bundle with one pair of the carrier added to or removed from
    one map θ_s, for every s and every pair."""
    for s in bundle.ic.morphisms:
        pairs = set(bundle.maps[s].pairs)
        for pair in itertools.product(bundle.poset.elements, repeat=2):
            tampered = PartialOrderIso(tuple(sorted(pairs ^ {pair})))
            yield dataclasses.replace(bundle, maps={**bundle.maps, s: tampered})


def test_a_tampered_bundle_is_refused_or_composes_over_its_base(g2):
    """The join reads s∘t off the base rows, so a pair of arrows whose base
    factors do not compose must be refused, not read off the wrong row:
    every semidirect product built from a tampered bundle of g2 has each
    composite (x|s)∘(y|t) over s∘t.  Of the 208 cases, 25 are built."""
    bundles = (bernoulli_partial(g2), symmetry_to_partial(fibred_to_symmetry(bernoulli_global(g2))))
    cases = built = 0
    for broken in itertools.chain.from_iterable(map(single_pair_tamperings, bundles)):
        cases += 1
        try:
            ic, arrows = semidirect_product(broken)
        except ToolkitError:
            continue
        built += 1
        for (g, f), h in ic.cat.table.items():
            assert arrows[h][1] == g2.compose(arrows[g][1], arrows[f][1])
    assert (cases, built) == (208, 25)
