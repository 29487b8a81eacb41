"""Semidirect products and Szendrei-style expansions.

``semidirect_product`` turns a partial action bundle into a category:
arrows are pairs (x, s) with x in the range-side domain D_s, the target of
(x, s) is x, the source is θ_{s°}(x), and composition multiplies the
underlying morphisms.  ``szendrei`` runs the same kernel on the θ_s it
reads off the Bernoulli carrier (``BernoulliPoset.graph``), with no bundle
and no carrier order, for four variants:

* ``global``          pairs (A, s) with the signature of A below ss°;
* ``partial``         pointed subsets with A ∋ iε(A)·s;
* ``strict_global``   signature equal to ss°;
* ``strict_partial``  pointed subsets with iε(A) = ss° and s ∈ A.

On top of the expansion live the pseudo product (A,s)⋆(B,t), the wedge of
idempotents, restriction/corestriction below an arrow, inner expansions at
one object (rows of element numbers, named as ``table`` on first read),
the functor induced by a functor of the underlying categories, and the
projection back onto the underlying category.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .actions import PartialActionBundle
from .bernoulli import BernoulliPoset, build_bernoulli
from .core import (
    FiniteCategory,
    Functor,
    InverseCategory,
    ValidationReport,
    join_category,
    light_test,
    natural_leq,
)
from .errors import NotAFunctor, NotComposable, NotIdempotent, ParseError, PreconditionFailed, UndeclaredName
from .limits import DEFAULT_MAX_ELEMENTS, check_cap
from .poset import subset_name

VARIANTS = ("global", "partial", "strict_global", "strict_partial")


def semidirect_product(
    bundle: PartialActionBundle,
) -> tuple[InverseCategory, dict[str, tuple[str, str]]]:
    """Build the semidirect product category of a partial action bundle.

    Objects are the poset elements; the arrow (x, s), written ``(x|s)``,
    exists for every x in D_s and runs from θ_{s°}(x) to x, so the arrows
    over s are read off the pairs of θ_{s°}.  The identity of x pairs it
    with the one identity whose domain holds x, or with the one idempotent
    whose domain holds x when the bundle is strict.  The arrows are the
    triples (θ_{s°}x, s, x) of ``join_category``, which composes (x, s)(y,
    t) = (x, st).  Returns the verified inverse category together with the
    map from arrow names back to (element, morphism) pairs.  Raises
    NOT_A_FUNCTOR when some morphism has no map, PRECONDITION_FAILED
    naming a morphism whose map lists a point twice, and PARSE_ERROR
    naming the least name that two (element, morphism) pairs share.
    """
    bundle.require_total()
    ic, maps = bundle.ic, bundle.maps
    theta = {s: maps[ic.inv(s)].pairs for s in ic.morphisms}
    return _semidirect(ic, bundle.poset.elements, theta, bundle.strict)


def _semidirect(
    ic: InverseCategory, objects: tuple[str, ...], theta: dict[str, Sequence[tuple[str, str]]], strict: bool
) -> tuple[InverseCategory, dict[str, tuple[str, str]]]:
    """``semidirect_product`` of the maps whose pairs, in name order, are
    ``theta[s]`` = θ_{s°} for each morphism s; D_e is the range of θ_e."""
    units: dict[str, list[str]] = {}
    for e in ic.idempotents() if strict else map(ic.identity_of, ic.objects):
        for x in {y for _, y in theta[e]}:
            units.setdefault(x, []).append(e)
    identities: dict[str, str] = {}
    for x in objects:
        found = units.get(x, [])
        if len(found) != 1:
            raise PreconditionFailed("element needs exactly one unit arrow", element=x, units=found)
        identities[x] = f"({x}|{found[0]})"

    arrows: dict[str, tuple[str, str]] = {}
    triples: dict[str, tuple[str, str, str]] = {}
    shared: set[str] = set()
    for s in ic.morphisms:
        pairs = theta[s]
        dom, ran = {x for x, _ in pairs}, {y for _, y in pairs}
        if len(dom) < len(pairs) or len(ran) < len(pairs):
            failure = "mapping not functional" if len(dom) < len(pairs) else "mapping not injective"
            raise PreconditionFailed(f"the map of {ic.inv(s)!r} lists a point twice", morphism=ic.inv(s), failure=failure)
        for x, y in pairs:
            name = f"({x}|{s})"
            if arrows.setdefault(name, (x, s)) != (x, s):
                shared.add(name)
            triples[name] = (y, s, x)
    if shared:
        name = min(shared)
        raise ParseError(f"element and morphism names make two arrows share the name {name!r}", name=name)
    inv = join_category(objects, triples, identities, ic, lambda _, s, x: f"({x}|{s})")
    return inv, arrows


@dataclass
class SzCategory:
    """An expansion of ``origin``: its arrows are (subset, morphism) pairs."""

    ic: InverseCategory
    origin: InverseCategory
    variant: str
    carrier: BernoulliPoset
    arrows: dict[str, tuple[str, str]]

    def pair(self, name: str) -> tuple[str, str]:
        try:
            return self.arrows[name]
        except KeyError:
            raise _no_arrow(name) from None

    def arrow_name(self, key: str, s: str) -> str:
        name = f"({key}|{s})"
        if name not in self.arrows:
            raise UndeclaredName(f"no arrow {name!r} in the expansion", subset=key, morphism=s)
        return name


def _no_arrow(name: str) -> UndeclaredName:
    return UndeclaredName(f"no arrow {name!r} in the expansion", name=name)


def szendrei(
    origin: InverseCategory, variant: str = "global", max_elements: int = DEFAULT_MAX_ELEMENTS
) -> SzCategory:
    """Construct one of the four expansion variants over the Bernoulli poset.

    Caps the carrier and then the arrow count Σ_s |D_s| at ``max_elements``,
    both before any arrow is named.  Raises PRECONDITION_FAILED for a
    variant outside ``VARIANTS``.
    """
    if variant not in VARIANTS:
        raise PreconditionFailed(f"unknown variant {variant!r}", variant=variant)
    pointed = variant in ("partial", "strict_partial")
    strict = variant in ("strict_global", "strict_partial")
    carrier = build_bernoulli(origin, pointed=pointed, max_elements=max_elements)
    theta = {s: sorted(carrier.graph(origin.inv(s), strict)) for s in origin.morphisms}
    # one arrow (x|s) per pair of θ_{s°}
    check_cap("expansion", sum(map(len, theta.values())), max_elements)
    inv, arrows = _semidirect(origin, tuple(carrier.elements), theta, strict)
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
    arrows are composable in the expansion).  Raises NOT_COMPOSABLE otherwise,
    and UNDECLARED_NAME for a name that is no arrow.
    """
    try:
        (akey, s), (bkey, t) = sz.arrows[a], sz.arrows[b]
    except KeyError as exc:
        raise _no_arrow(exc.args[0]) from None
    table = sz.origin.cat.table
    st = table.get((s, t))
    if st is None:
        raise NotComposable(f"underlying morphisms {s!r} and {t!r} do not compose", left=a, right=b)
    # st is defined, so A sits at the target of s and B at its source
    return sz.arrow_name(sz.carrier.pseudo(s, akey, bkey), st)


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
            sz.pair(name)  # UNDECLARED_NAME for a name that is no arrow
            raise NotIdempotent(f"arrow {name!r} is not idempotent", arrow=name)
    return pseudo_product(sz, a, b)


def _below_inner(sz: SzCategory, arrow: str, idem: str, side: str) -> None:
    """Raise NOT_IDEMPOTENT unless ``idem`` is idempotent, then
    PRECONDITION_FAILED unless it sits below the inner ``side`` ("source"
    or "target") of ``arrow``; UNDECLARED_NAME for a name that is no arrow."""
    if not sz.ic.is_idempotent(idem):
        sz.pair(idem)
        raise NotIdempotent(f"arrow {idem!r} is not idempotent", arrow=idem)
    try:
        inner = sz.ic.dom_idem(arrow) if side == "source" else sz.ic.ran_idem(arrow)
    except KeyError:
        raise _no_arrow(arrow) from None
    if not product_order_leq(sz, idem, inner):
        raise PreconditionFailed(
            f"{idem!r} is not below the inner {side} {inner!r} of {arrow!r}", arrow=arrow, idem=idem, inner=inner
        )


def restriction(sz: SzCategory, arrow: str, idem: str) -> str:
    """The unique arrow below ``arrow`` whose inner source is ``idem``.

    For (E,f) ≤ s°s-side of (A,s) in the product order the value is (sE, sf).
    Raises NOT_IDEMPOTENT for a non-idempotent ``idem`` and
    PRECONDITION_FAILED when (E,f) does not sit below the inner source.
    """
    _below_inner(sz, arrow, idem, "source")
    (_, s), (ekey, f) = sz.pair(arrow), sz.pair(idem)
    return sz.arrow_name(sz.carrier.act(s, ekey), sz.origin.cat.table[(s, f)])


def corestriction(sz: SzCategory, arrow: str, idem: str) -> str:
    """The unique arrow below ``arrow`` whose inner target is ``idem``.

    For (E,f) below the inner target (A, ss°) the value is (E, fs).
    """
    _below_inner(sz, arrow, idem, "target")
    (_, s), (ekey, f) = sz.pair(arrow), sz.pair(idem)
    return sz.arrow_name(ekey, sz.origin.cat.table[(f, s)])


# ---------------------------------------------------------------------------
# inner expansions (one object, total pseudo product)


@dataclass
class InnerExpansion:
    """All arrows over the endomorphisms of one object, closed under ⋆:
    ``rows[i][j]`` is the number of elements[i] ⋆ elements[j], and
    ``table`` names the rows on first read."""

    sz: SzCategory
    obj: str
    elements: tuple[str, ...]
    rows: list[list[int]]
    identity: str | None

    @cached_property
    def table(self) -> dict[tuple[str, str], str]:
        products = map(self.elements.__getitem__, itertools.chain.from_iterable(self.rows))
        return dict(zip(itertools.product(self.elements, repeat=2), products))


def inner_expansion(
    sz: SzCategory, obj: str, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> InnerExpansion:
    """Restrict an expansion to one object; ⋆ becomes a total operation.

    This is the Szendrei expansion of the monoid End(X), for a group its
    prefix expansion.  End(X) composes totally and every variant's arrows
    over it are closed under ⋆: the rows are ``BernoulliPoset.star_rows``,
    and no name is made.  An identity (U, u) has u = u·1_X = 1_X and then
    U ∪ {iε(U)} = {1_X}, so only ({1_X}, 1_X) is checked, along its row
    and column.  The pointed variants pass and form inverse monoids; the
    full variants are inverse semigroups without identity in general.  Raises
    SIZE_CAP_EXCEEDED before any ⋆ is taken when the table's |elements|²
    entries are above ``max_elements``, and UNDECLARED_NAME when ``obj``
    is not an object of the underlying category.
    """
    if obj not in sz.origin.objects:
        raise UndeclaredName(f"no object {obj!r} in the underlying category", name=obj)
    src, tgt = sz.origin.cat.src, sz.origin.cat.tgt
    inner = {name: pair for name, pair in sz.arrows.items() if src[pair[1]] == obj == tgt[pair[1]]}
    check_cap("inner expansion", len(inner) ** 2, max_elements)
    elements, rows = tuple(inner), sz.carrier.star_rows(list(inner.values()))
    one = sz.origin.identity_of(obj)
    u = elements.index(sz.arrow_name(subset_name((one,)), one))
    positions = list(range(len(elements)))
    identity = elements[u] if rows[u] == positions == list(map(itemgetter(u), rows)) else None
    return InnerExpansion(sz, obj, elements, rows, identity)


def validate_inverse_semigroup(
    elements: Iterable[str], table: dict[tuple[str, str], str]
) -> ValidationReport:
    """Totality, associativity, commuting idempotents, unique inverses.

    The table is read once, by C-level maps, into rows of element numbers
    (column b lists a·b for each a); only when a product is missing or
    escapes the set are the pairs scanned in order.  Associativity is
    decided by Light's test (Clifford & Preston, *The Algebraic Theory of
    Semigroups* I, §1.2), run by ``core`` on the rows read as a one-object
    category: the elements a with (xa)y = x(ay) for all x, y are closed
    under the product, so checking a generating set costs n²·|generators|
    instead of n³.  When it fails, every triple is scanned, so the report
    lists each failing (a, b, c) in order.

    Once totality, associativity and commuting idempotents hold, an
    element has at most one generalized inverse (``core``'s certificate
    theorem, Lawson, *Inverse Semigroups*, Thm 1.1.3), so each inverse
    scan stops at the first one it meets.  An element with none, or a
    table that broke an earlier rule, is scanned in full, so the counts
    reported are those of a full scan.
    """
    report, elems = ValidationReport(), tuple(elements)
    num = {a: i for i, a in enumerate(elems)}
    try:
        right = [list(map(num.__getitem__, map(table.__getitem__, zip(elems, itertools.repeat(b))))) for b in elems]
    except KeyError:
        eset = set(elems)
        for a, b in itertools.product(elems, repeat=2):
            if table.get((a, b)) not in eset:
                report.add("semigroup-total", (a, b), "product missing or escapes the set")
        return report
    cat = FiniteCategory.from_rows(("*",), dict.fromkeys(elems, ("*", "*")), {}, right)
    if light_test(cat) is None:
        for a, b, c in itertools.product(elems, repeat=3):
            if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                report.add("semigroup-associative", (a, b, c), "products disagree")
    idem = [a for a, column in enumerate(right) if column[a] == a]
    for e, f in itertools.product(idem, repeat=2):
        if right[f][e] != right[e][f]:
            report.add("idempotents-commute", (elems[e], elems[f]), "ef differs from fe")
    unique = report.ok
    for a, column in enumerate(right):  # column[t] = t·a
        count = 0
        for t, ta in enumerate(column):
            if column[right[t][a]] == a and right[t][ta] == t:
                count += 1
                if unique:
                    break
        if count != 1:
            report.add("unique-inverse", (elems[a],), f"{count} generalized inverses")
    return report


# ---------------------------------------------------------------------------
# functoriality and the projection


def expansion_functor(szc: SzCategory, szd: SzCategory, f: Functor) -> Functor:
    """Lift a functor of the underlying categories to the expansions:
    (A, s) ↦ (f(A), f(s)).

    Raises PRECONDITION_FAILED unless both expansions are the same variant
    and ``f`` runs between their underlying categories, and NOT_A_FUNCTOR
    naming the first morphism (in declaration order) that ``f`` does not
    map, or when the image of a subset is not an element of the target
    carrier.
    """
    if szc.variant != szd.variant:
        raise PreconditionFailed("variants differ", source=szc.variant, target=szd.variant)
    if f.source != szc.origin.cat or f.target != szd.origin.cat:
        raise PreconditionFailed("the functor does not run between the underlying categories")
    missing = next((m for m in szc.origin.morphisms if m not in f.morphisms), None)
    if missing is not None:
        raise NotAFunctor(f"morphism {missing!r} has no image", morphism=missing)
    obj_map: dict[str, str] = {}
    for key, elt in szc.carrier.elements.items():
        image = subset_name({f.morphisms[m] for m in elt.members})
        if image not in szd.carrier.elements:
            raise NotAFunctor("image subset missing", subset=key, image=image)
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
    """The prefix expansion of a finite group, its inner partial expansion.

    Elements are pairs (A, g), named ``({..}|g)``, with A a subset of the
    group containing both the identity and g; multiplication is
    (A, g)(B, h) = (A ∪ gB, gh).  Returns (sorted elements, table).  Raises
    PRECONDITION_FAILED unless ``group`` has one object and every s has
    s°s = ss° = 1, and SIZE_CAP_EXCEEDED above the default cap (Z_n, n ≥ 8).
    """
    if len(group.objects) != 1:
        raise PreconditionFailed("expects a one-object category", objects=group.objects)
    unit = group.identity_of(group.objects[0])
    for s in group.morphisms:
        if not group.dom_idem(s) == unit == group.ran_idem(s):
            raise PreconditionFailed("expects a group", morphism=s)
    ie = inner_expansion(szendrei(group, "partial"), group.objects[0])
    return tuple(sorted(ie.elements)), ie.table
