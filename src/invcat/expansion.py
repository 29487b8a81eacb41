"""Semidirect products and Szendrei-style expansions.

``semidirect_product`` turns a partial action bundle into a category:
arrows are pairs (x, s) with x in the range-side domain D_s, the target of
(x, s) is x, the source is θ_{s°}(x), and composition multiplies the
underlying morphisms.  A fibred action reaches it through
``fibred_to_symmetry`` and ``symmetry_to_partial``.  Applied to the bundles
of the Bernoulli actions this yields the four expansion variants of
``szendrei``:

* ``global``          pairs (A, s) with the signature of A below ss°;
* ``partial``         pointed subsets with A ∋ iε(A)·s;
* ``strict_global``   signature equal to ss°;
* ``strict_partial``  pointed subsets with iε(A) = ss° and s ∈ A.

On top of the expansion live the pseudo product (A,s)⋆(B,t), the wedge of
idempotents, restriction/corestriction below an arrow, inner expansions at
one object, the functor induced by a functor of the underlying categories,
and the projection back onto the underlying category.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .actions import PartialActionBundle
from .bernoulli import BernoulliPoset, _bundle, build_bernoulli
from .core import (
    Functor,
    InverseCategory,
    ValidationReport,
    join_category,
    natural_leq,
)
from .errors import NotComposable, NotIdempotent, PreconditionFailed
from .limits import DEFAULT_MAX_ELEMENTS, check_cap
from .poset import subset_name

VARIANTS = ("global", "partial", "strict_global", "strict_partial")


def semidirect_product(
    bundle: PartialActionBundle,
) -> tuple[InverseCategory, dict[str, tuple[str, str]]]:
    """Build the semidirect product category of a partial action bundle.

    Objects are the poset elements; the arrow (x, s), written ``(x|s)``,
    exists for every x in D_s and runs from θ_{s°}(x) to x.  The identity of
    x pairs it with the one identity whose domain holds x, or with the one
    idempotent whose domain holds x when the bundle is strict.  A fibred
    action reaches this through ``fibred_to_symmetry`` and
    ``symmetry_to_partial``.  The composite (x, s)(y, t) = (x, st) is looked
    up by (x, st), so the table shares the arrow names.  Returns the
    verified inverse category together with the map from arrow names back
    to (element, morphism) pairs.
    """
    ic, domains = bundle.ic, bundle.domains
    objects = bundle.poset.elements
    units: dict[str, list[str]] = {}
    for e in ic.idempotents() if bundle.strict else map(ic.identity_of, ic.objects):
        for x in domains[e]:
            units.setdefault(x, []).append(e)
    identities: dict[str, str] = {}
    for x in objects:
        found = units.get(x, [])
        assert len(found) == 1, (x, found, "element needs exactly one unit arrow")
        identities[x] = f"({x}|{found[0]})"

    arrows: dict[str, tuple[str, str]] = {}
    names: dict[tuple[str, str], str] = {}
    typing: dict[str, tuple[str, str]] = {}
    for s in ic.morphisms:
        back = dict(bundle.maps[ic.inv(s)].pairs)
        for x in sorted(domains[s]):
            name = f"({x}|{s})"
            arrows[name] = (x, s)
            names[(x, s)] = name
            typing[name] = (back[x], x)
    table = ic.cat.table

    def product(a: str, b: str) -> str:
        (x, s), (_, t) = arrows[a], arrows[b]
        st = table.get((s, t))
        return names.get((x, st)) or f"({x}|{st})"

    return join_category(objects, typing, identities, product), arrows


@dataclass
class SzCategory:
    """An expansion of ``origin``: its arrows are (subset, morphism) pairs."""

    ic: InverseCategory
    origin: InverseCategory
    variant: str
    carrier: BernoulliPoset
    arrows: dict[str, tuple[str, str]]

    def pair(self, name: str) -> tuple[str, str]:
        return self.arrows[name]

    def arrow_name(self, key: str, s: str) -> str:
        name = f"({key}|{s})"
        assert name in self.arrows, (key, s, "no such arrow")
        return name

    def push(self, c: str, key: str) -> str:
        """Apply a morphism of the underlying category to a subset element."""
        return self.carrier.act(c, key)

    def idem_of(self, key: str) -> str:
        return self.carrier.elements[key].idem


def szendrei(
    origin: InverseCategory,
    variant: str = "global",
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> SzCategory:
    """Construct one of the four expansion variants over the Bernoulli poset.

    Caps the carrier and then the arrow count Σ_s |D_s| at ``max_elements``,
    both before any arrow is named.
    """
    assert variant in VARIANTS, f"unknown variant {variant!r}"
    pointed = variant in ("partial", "strict_partial")
    strict = variant in ("strict_global", "strict_partial")
    carrier = build_bernoulli(origin, pointed=pointed, max_elements=max_elements)
    bundle = _bundle(carrier, strict)
    # one arrow (x|s) per x in D_s
    check_cap("expansion", sum(map(len, bundle.domains.values())), max_elements)
    inv, arrows = semidirect_product(bundle)
    return SzCategory(inv, origin, variant, carrier, arrows)


# ---------------------------------------------------------------------------
# orders on an expansion


def product_order_leq(sz: SzCategory, a: str, b: str) -> bool:
    """(A, s) ≤ (B, t) componentwise: A ≤ B in the subset poset and s ≤ t
    in the natural order of the underlying category.

    The natural order of the expansion refines this order.
    """
    (akey, s), (bkey, t) = sz.pair(a), sz.pair(b)
    if not sz.carrier.poset.leq(akey, bkey):
        return False
    return sz.origin.cat.parallel(s, t) and natural_leq(sz.origin, s, t)


# ---------------------------------------------------------------------------
# pseudo product, wedge, restriction, corestriction


def pseudo_product(sz: SzCategory, a: str, b: str) -> str:
    """(A,s) ⋆ (B,t) = (s·iε(B)·s°·A ∪ iε(A)·s·B, st).

    Defined exactly when st is; extends composition (they agree whenever the
    arrows are composable in the expansion).  Raises NOT_COMPOSABLE otherwise.
    """
    (akey, s), (bkey, t) = sz.pair(a), sz.pair(b)
    origin = sz.origin
    st = origin.compose(s, t)
    if st is None:
        raise NotComposable(
            f"underlying morphisms {s!r} and {t!r} do not compose", left=a, right=b
        )
    eb, ea = sz.idem_of(bkey), sz.idem_of(akey)
    conj = origin.compose(origin.compose(s, eb), origin.inv(s))
    lead = origin.compose(ea, s)
    assert conj is not None and lead is not None
    members: set[str] = set()
    for m in sz.carrier.elements[akey].members:
        cm = origin.compose(conj, m)
        assert cm is not None
        members.add(cm)
    for m in sz.carrier.elements[bkey].members:
        lm = origin.compose(lead, m)
        assert lm is not None
        members.add(lm)
    return sz.arrow_name(subset_name(members), st)


def wedge(sz: SzCategory, a: str, b: str) -> str:
    """Meet of two idempotent arrows: (E,i) ∧ (F,j) = (iε(F)·E ∪ iε(E)·F, ij).

    Requires both arrows idempotent (NOT_IDEMPOTENT) and i, j at the same
    object (NOT_COMPOSABLE).  On idempotents ⋆ reduces to this formula,
    since iε(E) ≤ i gives i·iε(F)·i°·m = iε(F)·m and iε(E)·i = iε(E), so the
    meet is computed as ⋆.  It is the greatest lower bound of the two arrows
    in the product order.
    """
    for name in (a, b):
        if not sz.ic.is_idempotent(name):
            raise NotIdempotent(f"arrow {name!r} is not idempotent", arrow=name)
    return pseudo_product(sz, a, b)


def restriction(sz: SzCategory, arrow: str, idem: str) -> str:
    """The unique arrow below ``arrow`` whose inner source is ``idem``.

    For (E,f) ≤ s°s-side of (A,s) in the product order the value is (sE, sf).
    Raises NOT_IDEMPOTENT for a non-idempotent ``idem`` and
    PRECONDITION_FAILED when (E,f) does not sit below the inner source.
    """
    if not sz.ic.is_idempotent(idem):
        raise NotIdempotent(f"arrow {idem!r} is not idempotent", arrow=idem)
    inner = sz.ic.dom_idem(arrow)
    if not product_order_leq(sz, idem, inner):
        raise PreconditionFailed(
            f"{idem!r} is not below the inner source {inner!r} of {arrow!r}",
            arrow=arrow,
            idem=idem,
            inner=inner,
        )
    (akey, s), (ekey, f) = sz.pair(arrow), sz.pair(idem)
    sf = sz.origin.compose(s, f)
    assert sf is not None
    return sz.arrow_name(sz.push(s, ekey), sf)


def corestriction(sz: SzCategory, arrow: str, idem: str) -> str:
    """The unique arrow below ``arrow`` whose inner target is ``idem``.

    For (E,f) below the inner target (A, ss°) the value is (E, fs).
    """
    if not sz.ic.is_idempotent(idem):
        raise NotIdempotent(f"arrow {idem!r} is not idempotent", arrow=idem)
    inner = sz.ic.ran_idem(arrow)
    if not product_order_leq(sz, idem, inner):
        raise PreconditionFailed(
            f"{idem!r} is not below the inner target {inner!r} of {arrow!r}",
            arrow=arrow,
            idem=idem,
            inner=inner,
        )
    (akey, s), (ekey, f) = sz.pair(arrow), sz.pair(idem)
    fs = sz.origin.compose(f, s)
    assert fs is not None
    return sz.arrow_name(ekey, fs)


# ---------------------------------------------------------------------------
# inner expansions (one object, total pseudo product)


@dataclass
class InnerExpansion:
    """All arrows over the endomorphisms of one object, closed under ⋆."""

    sz: SzCategory
    obj: str
    elements: tuple[str, ...]
    table: dict[tuple[str, str], str]
    identity: str | None


def inner_expansion(
    sz: SzCategory, obj: str, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> InnerExpansion:
    """Restrict an expansion to one object; ⋆ becomes a total operation.

    The pointed variants contain ({1_X}, 1_X) and form inverse monoids; the
    full variants are inverse semigroups without identity in general.
    Raises SIZE_CAP_EXCEEDED before any ⋆ is taken when the table's
    |elements|² entries are above ``max_elements``.
    """
    elements = tuple(
        name
        for name, (_, s) in sz.arrows.items()
        if sz.origin.src(s) == obj and sz.origin.tgt(s) == obj
    )
    check_cap("inner expansion", len(elements) ** 2, max_elements)
    table = {
        (a, b): pseudo_product(sz, a, b) for a in elements for b in elements
    }
    identity = None
    for u in elements:
        if all(table[(u, v)] == v and table[(v, u)] == v for v in elements):
            assert identity is None, "two identities in one expansion"
            identity = u
    return InnerExpansion(sz, obj, elements, table, identity)


def validate_inverse_semigroup(
    elements: Iterable[str], table: dict[tuple[str, str], str]
) -> ValidationReport:
    """Totality, associativity, commuting idempotents, unique inverses.

    Associativity is decided by Light's test (Clifford & Preston, *The
    Algebraic Theory of Semigroups* I, §1.2): the elements a with
    (xa)y = x(ay) for all x, y are closed under the product, so checking
    them over a generating set costs n²·|generators| instead of n³.  When
    the test fails, every triple is scanned, so the report lists each
    failing (a, b, c) in order.
    """
    report = ValidationReport()
    elems = tuple(elements)
    eset = set(elems)
    for a in elems:
        for b in elems:
            if table.get((a, b)) not in eset:
                report.add("semigroup-total", (a, b), "product missing or escapes the set")
    if report.violations:
        return report
    if not _light_associative(elems, table):
        for a in elems:
            for b in elems:
                for c in elems:
                    if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                        report.add("semigroup-associative", (a, b, c), "products disagree")
    idem = [a for a in elems if table[(a, a)] == a]
    for e in idem:
        for f in idem:
            if table[(e, f)] != table[(f, e)]:
                report.add("idempotents-commute", (e, f), "ef differs from fe")
    for a in elems:
        inverses = [
            t
            for t in elems
            if table[(table[(a, t)], a)] == a and table[(table[(t, a)], t)] == t
        ]
        if len(inverses) != 1:
            report.add(
                "unique-inverse", (a,), f"{len(inverses)} generalized inverses"
            )
    return report


def _light_associative(elems: tuple[str, ...], table: dict[tuple[str, str], str]) -> bool:
    """(xg)y = x(gy) for every generator g and all x, y of a total table."""
    index = {a: i for i, a in enumerate(elems)}
    rows = [[index[table[(a, b)]] for b in elems] for a in elems]
    for g in _generators(rows):
        gy = rows[g]
        for row in rows:
            if rows[row[g]] != [row[j] for j in gy]:
                return False
    return True


def _generators(rows: list[list[int]]) -> list[int]:
    """A generating set of the table ``rows`` (entry [a][b] is ab): every
    element is a generator times generators, multiplied from the left.
    Elements that are seldom products come first, being the likeliest to
    be needed."""
    produced = Counter(itertools.chain.from_iterable(rows))
    gens: list[int] = []
    reached: set[int] = set()
    for x in sorted(range(len(rows)), key=produced.__getitem__):
        if x in reached:
            continue
        gens.append(x)
        frontier = [x, *(rows[y][x] for y in reached)]
        while frontier:
            y = frontier.pop()
            if y not in reached:
                reached.add(y)
                frontier.extend(rows[y][g] for g in gens)
    return gens


# ---------------------------------------------------------------------------
# functoriality and the projection


def expansion_functor(szc: SzCategory, szd: SzCategory, f: Functor) -> Functor:
    """Lift a functor of the underlying categories to the expansions:
    (A, s) ↦ (f(A), f(s)).  Both expansions must be the same variant."""
    assert szc.variant == szd.variant, "variants differ"
    assert f.source is szc.origin.cat or f.source == szc.origin.cat
    assert f.target is szd.origin.cat or f.target == szd.origin.cat
    obj_map: dict[str, str] = {}
    for key, elt in szc.carrier.elements.items():
        image = subset_name({f.morphisms[m] for m in elt.members})
        assert image in szd.carrier.elements, (key, image, "image subset missing")
        obj_map[key] = image
    mor_map = {
        name: szd.arrow_name(obj_map[key], f.morphisms[s])
        for name, (key, s) in szc.arrows.items()
    }
    return Functor(szc.ic.cat, szd.ic.cat, obj_map, mor_map)


def projection(sz: SzCategory) -> Functor:
    """The surjective map (A, s) ↦ s back onto the underlying category.

    A genuine functor for the non-strict variants.  For the strict variants
    it preserves composition but sends the identity of A to the idempotent
    iε(A), which need not be an identity morphism.
    """
    return Functor(
        sz.ic.cat,
        sz.origin.cat,
        {key: elt.obj for key, elt in sz.carrier.elements.items()},
        {name: s for name, (_, s) in sz.arrows.items()},
    )


# ---------------------------------------------------------------------------
# the classical expansion of a group


def classical_group_expansion(group: InverseCategory) -> tuple[tuple[str, ...], dict[tuple[str, str], str]]:
    """The prefix expansion of a finite group, enumerated directly.

    Elements are pairs (A, g), named ``({..}|g)``, with A a subset of the
    group containing both the identity and g; multiplication is
    (A, g)(B, h) = (A ∪ gB, gh).  Returns (elements, multiplication table).
    """
    assert len(group.objects) == 1, "expects a one-object category"
    unit = group.identity_of(group.objects[0])
    for s in group.morphisms:
        assert group.dom_idem(s) == unit == group.ran_idem(s), "expects a group"

    members = sorted(group.morphisms)
    elements: list[tuple[frozenset[str], str]] = []
    for g in group.morphisms:
        required = {unit, g}
        optional = [m for m in members if m not in required]
        for r in range(len(optional) + 1):
            for extra in itertools.combinations(optional, r):
                elements.append((frozenset(required) | frozenset(extra), g))
    names = {
        (aset, g): f"({subset_name(aset)}|{g})" for aset, g in elements
    }
    table: dict[tuple[str, str], str] = {}
    for aset, g in elements:
        for bset, h in elements:
            gb = {group.compose(g, m) for m in bset}
            assert None not in gb
            gh = group.compose(g, h)
            assert gh is not None
            table[(names[(aset, g)], names[(bset, h)])] = names[
                (aset | frozenset(gb), gh)  # type: ignore[arg-type]
            ]
    ordered = tuple(sorted(names.values()))
    return ordered, table
