"""Independent brute-force recomputations used to cross-check the library.

Everything here works from the raw composition table by exhaustive search,
deliberately avoiding the library's cached structure and formulas, so that
agreement between the two is meaningful evidence rather than a tautology.
The pairwise scans that the indexed order checks replaced are kept here as
their references.  The last section generates inverse monoids by closure
for the property tests.
"""

from __future__ import annotations

import itertools
from typing import Callable

from invcat.core import FiniteCategory, InverseCategory, join_category
from invcat.poset import PartialOrderIso, Poset


def brute_generalized_inverses(cat: FiniteCategory, s: str) -> list[str]:
    """All t with s∘t∘s = s and t∘s∘t = t, scanning every morphism."""
    out = []
    for t in cat.morphisms:
        st = cat.table.get((s, t))
        ts = cat.table.get((t, s))
        if st is None or ts is None:
            continue
        if cat.table.get((s, ts)) == s and cat.table.get((t, st)) == t:
            out.append(t)
    return sorted(out)


def brute_composable_pairs(cat: FiniteCategory) -> set[tuple[str, str]]:
    """Every (g, f) with tgt f = src g, by looping over all pairs of morphisms."""
    return {
        (g, f)
        for f in cat.morphisms
        for g in cat.morphisms
        if cat.tgt[f] == cat.src[g]
    }


def brute_exactness_violations(cat: FiniteCategory) -> list[tuple[str, tuple]]:
    """(rule, witness) of every pair that breaks "the table holds exactly the
    composable pairs", looping over all pairs (f, g) in declaration order."""
    out = []
    for f in cat.morphisms:
        for g in cat.morphisms:
            defined = (g, f) in cat.table
            needed = cat.tgt[f] == cat.src[g]
            if needed and not defined:
                out.append(("missing-composite", (g, f)))
            elif defined and not needed:
                out.append(("spurious-composite", (g, f)))
            elif defined:
                h = cat.table[(g, f)]
                if cat.src[h] != cat.src[f] or cat.tgt[h] != cat.tgt[g]:
                    out.append(("composite-typing", (g, f, h)))
    return out


def brute_inverse_map(cat: FiniteCategory) -> dict[str, str] | None:
    """The inverse map if every morphism has exactly one candidate."""
    inv = {}
    for s in cat.morphisms:
        cands = brute_generalized_inverses(cat, s)
        if len(cands) != 1:
            return None
        inv[s] = cands[0]
    return inv


def brute_idempotents(cat: FiniteCategory) -> list[str]:
    return sorted(m for m in cat.morphisms if cat.table.get((m, m)) == m)


def brute_natural_leq(cat: FiniteCategory, s: str, t: str) -> bool | None:
    """s ≤ t iff s = t∘e for some idempotent e; None if not parallel."""
    if cat.src[s] != cat.src[t] or cat.tgt[s] != cat.tgt[t]:
        return None
    return any(cat.table.get((t, e)) == s for e in brute_idempotents(cat))


def brute_natural_order_forms(
    cat: FiniteCategory, inv: dict[str, str]
) -> dict[tuple[str, str], tuple[bool, bool, bool, bool]]:
    """For every parallel pair (s, t), the four usual characterisations of
    s ≤ t: s = t∘e and s = f∘t for some idempotents e, f, s = (s∘s°)∘t and
    s = t∘(s°∘s)."""
    idems: dict[str, list[str]] = {}
    for e in brute_idempotents(cat):
        idems.setdefault(cat.src[e], []).append(e)
    homs: dict[tuple[str, str], list[str]] = {}
    for m in cat.morphisms:
        homs.setdefault((cat.src[m], cat.tgt[m]), []).append(m)
    out = {}
    for (x, y), hom in homs.items():
        for s in hom:
            ran, dom = cat.table[(s, inv[s])], cat.table[(inv[s], s)]
            for t in hom:
                out[(s, t)] = (
                    any(cat.table.get((t, e)) == s for e in idems.get(x, ())),
                    any(cat.table.get((f, t)) == s for f in idems.get(y, ())),
                    cat.table.get((ran, t)) == s,
                    cat.table.get((t, dom)) == s,
                )
    return out


def brute_bernoulli_subsets(
    cat: FiniteCategory, inv: dict[str, str], pointed: bool
) -> set[frozenset[str]]:
    """Subsets of morphisms sharing one value of m∘m°, by filtering all subsets."""
    mors = sorted(cat.morphisms)
    found = set()
    for r in range(1, len(mors) + 1):
        for combo in itertools.combinations(mors, r):
            ranges = {cat.table[(m, inv[m])] for m in combo}
            if len(ranges) != 1:
                continue
            if pointed and next(iter(ranges)) not in combo:
                continue
            found.add(frozenset(combo))
    return found


def brute_prefix_expansion(
    cat: FiniteCategory, obj: str
) -> tuple[list[str], dict[tuple[str, str], str]]:
    """Prefix expansion of a one-object group: pairs (A, g) with unit, g ∈ A,
    multiplied by (A, g)(B, h) = (A ∪ gB, g∘h)."""
    unit = cat.identity[obj]
    members: list[tuple[frozenset[str], str]] = []
    for r in range(1, len(cat.morphisms) + 1):
        for combo in itertools.combinations(sorted(cat.morphisms), r):
            aset = frozenset(combo)
            if unit not in aset:
                continue
            for g in sorted(aset):
                members.append((aset, g))

    def name(a: frozenset[str], g: str) -> str:
        return "({" + ",".join(sorted(a)) + "}|" + g + ")"

    table = {}
    for a, g in members:
        for b, h in members:
            gb = frozenset(cat.table[(g, x)] for x in b)
            table[(name(a, g), name(b, h))] = name(a | gb, cat.table[(g, h)])
    return sorted(name(a, g) for a, g in members), table


def brute_ideals(elements: tuple[str, ...], leq: Callable[[str, str], bool]) -> set[frozenset[str]]:
    """All downward-closed subsets (including the empty one) by subset filter."""
    out = set()
    n = len(elements)
    for mask in range(1 << n):
        subset = {elements[i] for i in range(n) if mask >> i & 1}
        if all(y in subset for x in subset for y in elements if leq(y, x)):
            out.add(frozenset(subset))
    return out


def brute_order_isos(
    u: tuple[str, ...], v: tuple[str, ...], leq: Callable[[str, str], bool]
) -> list[dict[str, str]]:
    """All order isomorphisms u→v, by permutation search."""
    if len(u) != len(v):
        return []
    base = sorted(u)
    out = []
    for perm in itertools.permutations(sorted(v)):
        f = dict(zip(base, perm))
        if all(leq(a, b) == leq(f[a], f[b]) for a in base for b in base):
            out.append(f)
    return out


def brute_idempotent_iso_classes(
    cat: FiniteCategory, inv: dict[str, str]
) -> list[tuple[str, ...]]:
    """Partition idempotents by e ~ f when some s has s°∘s = e and s∘s° = f."""
    idems = brute_idempotents(cat)
    related: dict[str, set[str]] = {e: {e} for e in idems}
    for s in cat.morphisms:
        e = cat.table[(inv[s], s)]
        f = cat.table[(s, inv[s])]
        related[e].add(f)
        related[f].add(e)
    classes = []
    left = set(idems)
    while left:
        frontier = {min(left)}
        cls: set[str] = set()
        while frontier:
            x = frontier.pop()
            cls.add(x)
            frontier |= related[x] - cls
        classes.append(tuple(sorted(cls)))
        left -= cls
    return sorted(classes)


def brute_isotropy_order(cat: FiniteCategory, inv: dict[str, str], e: str) -> int:
    """Number of s with s∘s° = e = s°∘s."""
    return sum(
        1
        for s in cat.morphisms
        if cat.table[(s, inv[s])] == e and cat.table[(inv[s], s)] == e
    )


def brute_dimension(cat: FiniteCategory, inv: dict[str, str]) -> int:
    """Σ over idempotent classes of (class size)² × isotropy order."""
    return sum(
        len(cls) ** 2 * brute_isotropy_order(cat, inv, cls[0])
        for cls in brute_idempotent_iso_classes(cat, inv)
    )


# ---------------------------------------------------------------------------
# pairwise scans behind the indexed order checks


def brute_poset_axiom_failure(
    elements: tuple[str, ...], relation: frozenset[tuple[str, str]]
) -> str | None:
    """The first broken poset axiom, scanning relation pairs against every
    element in the relation's own iteration order, or None."""
    eset = set(elements)
    if len(eset) != len(elements):
        return "duplicate poset elements"
    for a, b in relation:
        if a not in eset or b not in eset:
            return "relation references unknown element"
    for a in elements:
        if (a, a) not in relation:
            return "relation not reflexive"
    for a, b in relation:
        if a != b and (b, a) in relation:
            return "relation not antisymmetric"
        for c in elements:
            if (b, c) in relation and (a, c) not in relation:
                return "relation not transitive"
    return None


def brute_is_ideal(poset: Poset, subset) -> bool:
    """Every element below a member is a member (non-elements are ignored)."""
    members = set(subset)
    return all(a in members for b in members for a in poset.elements if poset.leq(a, b))


def brute_order_iso(poset: Poset, pairs) -> PartialOrderIso | str | tuple:
    """The partial order isomorphism, or the message of the assertion that
    rejects it: functionality, injectivity, then the first pair of pairs (in
    sorted order) on which ≤ is not preserved and reflected."""
    ordered = tuple(sorted(pairs))
    if len({a for a, _ in ordered}) != len(ordered):
        return "mapping not functional"
    if len({b for _, b in ordered}) != len(ordered):
        return "mapping not injective"
    for (a, b), (c, d) in itertools.product(ordered, repeat=2):
        if poset.leq(a, c) != poset.leq(b, d):
            return ("mapping does not preserve and reflect order", (a, b), (c, d))
    return PartialOrderIso(ordered)


def brute_bernoulli_relation(cat: FiniteCategory, elements: dict) -> frozenset[tuple[str, str]]:
    """A ≤ B over every pair of Bernoulli elements: same object, e = iε(A)
    below iε(B) (e = iε(B)·e), and e·B ⊆ A."""
    out = set()
    for akey, a in elements.items():
        for bkey, b in elements.items():
            if a.obj != b.obj or cat.table.get((b.idem, a.idem)) != a.idem:
                continue
            if {cat.table[(a.idem, m)] for m in b.members} <= a.members:
                out.add((akey, bkey))
    return frozenset(out)


def brute_pointed_domain(
    cat: FiniteCategory, inv: dict[str, str], elements: dict, s: str, strict: bool
) -> list[str]:
    """D_s on the pointed carrier, filtering every element in order: the
    signature idempotent e of A sits below ss° (e = ss°·e; strict: e = ss°)
    and A contains e·s."""
    ran = cat.table[(s, inv[s])]
    out = []
    for key, a in elements.items():
        below = a.idem == ran if strict else cat.table.get((ran, a.idem)) == a.idem
        if below and cat.table.get((a.idem, s)) in a.members:
            out.append(key)
    return out


def brute_inverse_semigroup_violations(
    elements: tuple[str, ...], table: dict[tuple[str, str], str]
) -> list[tuple[str, tuple, str]]:
    """(rule, witness, detail) of every violation, by the cubic scan:
    totality, associativity over all triples, commuting idempotents and
    unique generalized inverses."""
    out = []
    eset = set(elements)
    for a in elements:
        for b in elements:
            if table.get((a, b)) not in eset:
                out.append(("semigroup-total", (a, b), "product missing or escapes the set"))
    if out:
        return out
    for a, b, c in itertools.product(elements, repeat=3):
        if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
            out.append(("semigroup-associative", (a, b, c), "products disagree"))
    idem = [a for a in elements if table[(a, a)] == a]
    for e, f in itertools.product(idem, repeat=2):
        if table[(e, f)] != table[(f, e)]:
            out.append(("idempotents-commute", (e, f), "ef differs from fe"))
    for a in elements:
        count = sum(
            1
            for t in elements
            if table[(table[(a, t)], a)] == a and table[(table[(t, a)], t)] == t
        )
        if count != 1:
            out.append(("unique-inverse", (a,), f"{count} generalized inverses"))
    return out


# ---------------------------------------------------------------------------
# inverse monoids generated by closure

POINTS = range(3)
# every partial bijection of {0, 1, 2}, as the tuple of images (None where
# undefined)
PARTIAL_BIJECTIONS = tuple(
    images
    for images in itertools.product((None, *POINTS), repeat=3)
    if not any(y is not None and images.count(y) > 1 for y in images)
)
IDENTITY = tuple(POINTS)


def _name(p: tuple) -> str:
    return "".join("-" if y is None else str(y) for y in p)


def _compose(g: tuple, f: tuple) -> tuple:
    """g after f."""
    return tuple(None if y is None else g[y] for y in f)


def _inverse(p: tuple) -> tuple:
    return tuple(p.index(x) if x in p else None for x in POINTS)


def sub_inverse_monoid(generators: list[tuple]) -> InverseCategory:
    """The submonoid of I_3 generated by ``generators`` and their inverses."""
    elements = {IDENTITY, *generators, *map(_inverse, generators)}
    frontier = set(elements)
    while frontier:
        new = {_compose(g, f) for g in elements for f in frontier}
        new |= {_compose(f, g) for g in elements for f in frontier}
        frontier = new - elements
        elements |= frontier
    names = {_name(p): p for p in sorted(elements, key=_name)}
    return join_category(
        ["*"],
        {n: ("*", "*") for n in names},
        {"*": _name(IDENTITY)},
        lambda g, f: _name(_compose(names[g], names[f])),
    )


def cyclic_group(n: int) -> InverseCategory:
    """Z_n on one object, elements named "0" .. "n-1"."""
    return join_category(
        ["*"],
        {str(i): ("*", "*") for i in range(n)},
        {"*": "0"},
        lambda g, f: str((int(g) + int(f)) % n),
    )
