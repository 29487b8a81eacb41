"""Independent brute-force recomputations used to cross-check the library.

Everything here works from the raw composition table by exhaustive search,
deliberately avoiding the library's cached structure and formulas, so that
agreement between the two is meaningful evidence rather than a tautology.
The pairwise scans that the indexed order checks replaced, the full scans
that Light's test, the generator-only action checks and the hom-set walk of
``validate_partial`` replaced, and the group laws and closures that the
library takes from a validated inverse category, are kept here as their
references.  The derived categories of the join kernel are rebuilt from
their definitions, the ordered scan of a spec file is the reference for
``parse_category``, and the last section generates inverse monoids by
closure for the property tests.
"""

from __future__ import annotations

import itertools
from typing import Callable

from hypothesis import assume, strategies as st

from invcat.actions import FibredAction, PartialActionBundle, SymmetryAction
from invcat.algebra import GroupTable
from invcat.core import FiniteCategory, InverseCategory, join_category
from invcat.errors import ParseError
from invcat.poset import PartialOrderIso, Poset
from invcat.specfile import SCHEMA_VERSION, load_json


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


def brute_associativity_violations(cat: FiniteCategory) -> list[tuple[str, tuple]]:
    """("associativity", (h, g, f)) for every composable triple, looping
    over all triples (f, g, h) in declaration order, on which h∘(g∘f) is
    missing or differs from (h∘g)∘f.  Triples touching a missing g∘f or
    h∘g are left to the exactness rules."""
    out = []
    for f, g, h in itertools.product(cat.morphisms, repeat=3):
        if cat.tgt[f] != cat.src[g] or cat.tgt[g] != cat.src[h]:
            continue
        gf, hg = cat.table.get((g, f)), cat.table.get((h, g))
        if gf is None or hg is None:
            continue
        lhs = cat.table.get((h, gf))
        if lhs is None or lhs != cat.table.get((hg, f)):
            out.append(("associativity", (h, g, f)))
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


def brute_idempotents_below(cat: FiniteCategory, f: str) -> tuple[str, ...]:
    """The idempotents e with e = f∘e, sorted by name, over the whole table."""
    return tuple(e for e in brute_idempotents(cat) if cat.table.get((f, e)) == e)


def brute_idempotents_above(cat: FiniteCategory, e: str) -> tuple[str, ...]:
    """The idempotents f with e = f∘e, sorted by name, over the whole table."""
    return tuple(f for f in brute_idempotents(cat) if cat.table.get((f, e)) == e)


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


def brute_isomorphic_objects(cat: FiniteCategory) -> dict[str, set[str]]:
    """For each object, the objects isomorphic to it: the pairs joined by
    some s, t with t∘s and s∘t identities, closed to a fixed point."""
    iso = {x: {x} for x in cat.objects}
    for s in cat.morphisms:
        for t in cat.morphisms:
            if (
                cat.table.get((t, s)) == cat.identity[cat.src[s]]
                and cat.table.get((s, t)) == cat.identity[cat.tgt[s]]
            ):
                iso[cat.src[s]].add(cat.tgt[s])
                iso[cat.tgt[s]].add(cat.src[s])
    changed = True
    while changed:
        changed = False
        for x in cat.objects:
            reach = set().union(*(iso[y] for y in iso[x]))
            if not reach <= iso[x]:
                iso[x] |= reach
                changed = True
    return iso


def group_law_failure(group: GroupTable) -> tuple | None:
    """The first broken group law of an explicit table, or None: the unit
    is an element, ("unit",); every product is an element, ("closure", a,
    b); the unit is neutral, ("unit-neutral", a); a·a⁻¹ and a⁻¹·a are the
    unit, ("inverse", a); every triple associates, ("associativity", a, b,
    c)."""
    elems, table, unit = group.elements, group.table, group.unit
    if unit not in elems:
        return ("unit",)
    for a, b in itertools.product(elems, repeat=2):
        if table.get((a, b)) not in elems:
            return ("closure", a, b)
    for a in elems:
        if not table[(unit, a)] == a == table[(a, unit)]:
            return ("unit-neutral", a)
    for a in elems:
        b = group.inverse.get(a)
        if b not in elems or not table[(a, b)] == unit == table[(b, a)]:
            return ("inverse", a)
    for a, b, c in itertools.product(elems, repeat=3):
        if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
            return ("associativity", a, b, c)
    return None


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
    """The first broken poset axiom, or None: a repeated element, a pair
    naming a non-element, a missing (a, a), then, for b in element order
    and each a < b in element order, b ≤ a (antisymmetry) or some c ≤ a
    with c ≰ b (transitivity)."""
    eset = set(elements)
    if len(eset) != len(elements):
        return "duplicate poset elements"
    for a, b in relation:
        if a not in eset or b not in eset:
            return "relation references unknown element"
    for a in elements:
        if (a, a) not in relation:
            return "relation not reflexive"
    for b in elements:
        for a in elements:
            if a == b or (a, b) not in relation:
                continue
            if (b, a) in relation:
                return "relation not antisymmetric"
            if any((c, a) in relation and (c, b) not in relation for c in elements):
                return "relation not transitive"
    return None


def brute_is_ideal(poset: Poset, subset) -> bool:
    """Every element below a member is a member (non-elements are ignored)."""
    members = set(subset)
    return all(a in members for b in members for a in poset.elements if poset.leq(a, b))


def brute_order_iso(poset: Poset, pairs) -> PartialOrderIso | str | tuple:
    """The partial order isomorphism, or the message of the assertion that
    rejects it: functionality, injectivity, the first point (in sorted pair
    order) that is not an element of the poset, then the first pair of pairs
    (in sorted order) on which ≤ is not preserved and reflected."""
    ordered = tuple(sorted(pairs))
    if len({a for a, _ in ordered}) != len(ordered):
        return "mapping not functional"
    if len({b for _, b in ordered}) != len(ordered):
        return "mapping not injective"
    for point in itertools.chain.from_iterable(ordered):
        if point not in poset.elements:
            return ("point outside the poset", point)
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
# full scans behind the generator-only action checks


class _FirstWitnesses(list):
    """(rule, witness, detail) rows, keeping the first witness of each rule."""

    def add(self, rule: str, witness: tuple, detail: str) -> None:
        if all(row[0] != rule for row in self):
            self.append((rule, witness, detail))


def brute_fibred_violations(action: FibredAction) -> list[tuple[str, tuple, str]]:
    """The first witness of each broken fibred-action rule, by scanning
    every morphism, every admissible pair and every pair of elements."""
    out = _FirstWitnesses()
    ic, poset, moment, theta = action.ic, action.poset, action.moment, action.theta
    elements = set(poset.elements)
    for x in poset.elements:
        if x not in moment.obj or x not in moment.idem:
            out.add("moment-total", (x,), "element has no moment")
            continue
        e = moment.idem[x]
        if e not in ic.morphisms or not ic.is_idempotent(e) or ic.src(e) != moment.obj[x]:
            out.add("moment-typing", (x,), "moment is not an idempotent at the element's object")
    if out:
        return out
    for a, b in sorted(poset.relation):
        if a != b and not ic.leq_idem(moment.idem[a], moment.idem[b]):
            out.add("moment-monotone", (a, b), "moment does not preserve the order")
    adm = {s: [x for x in poset.elements if action.admissible(s, x)] for s in ic.morphisms}
    admissible = {(s, x) for s in ic.morphisms for x in adm[s]}
    for key in sorted(theta):
        if key not in admissible:
            out.add("theta-domain", key, "θ defined on a non-admissible pair")
    for key in sorted(admissible):
        if key not in theta:
            out.add("theta-domain", key, "θ missing on an admissible pair")
    for key in sorted(theta):
        if theta[key] not in elements:
            out.add("theta-image", key, "θ image is not a poset element")
    for x in poset.elements:
        got = theta.get((moment.idem[x], x)) if (moment.idem[x], x) in admissible else None
        if got != x:
            out.add("axiom-i", (x,), f"θ_e(x) = {got!r} differs from x")
    for s, x in sorted(admissible):
        y = theta.get((s, x))
        if y not in elements:
            continue
        if moment.obj[y] != ic.tgt(s):
            out.add("axiom-ii", (s, x), "image lies in the wrong fiber")
        elif not ic.leq_idem(moment.idem[y], ic.ran_idem(s)):
            out.add("axiom-ii", (s, x), "image idempotent does not sit below ss°")
        elif moment.idem[x] == ic.dom_idem(s) and moment.idem[y] != ic.ran_idem(s):
            out.add("axiom-ii", (s, x), "image idempotent must equal ss° when x sits at s°s")
    for s in ic.morphisms:
        bad = sorted(
            (a, b)
            for a, b in itertools.product(adm[s], repeat=2)
            if a != b
            and poset.leq(a, b)
            and theta.get((s, a)) in elements
            and theta.get((s, b)) in elements
            and not poset.leq(theta[(s, a)], theta[(s, b)])
        )
        if bad:
            out.add("axiom-ii-monotone", (s, *bad[0]), "θ_s does not preserve the order")
    for t, s in itertools.product(ic.morphisms, repeat=2):
        st = ic.compose(s, t)
        if st is None:
            continue
        for x in adm[t]:
            y = theta.get((t, x))
            defined_lhs = (s, y) in admissible
            defined_rhs = (st, x) in admissible
            lhs = theta.get((s, y)) if defined_lhs else None
            rhs = theta.get((st, x)) if defined_rhs else None
            if defined_lhs != defined_rhs or (defined_lhs and lhs != rhs):
                out.add(
                    "axiom-iii",
                    (s, t, x),
                    f"θ_s∘θ_t gives {lhs!r} (defined={defined_lhs}) but "
                    f"θ_st gives {rhs!r} (defined={defined_rhs})",
                )
    return out


def brute_symmetry_violations(sym: SymmetryAction) -> list[tuple[str, tuple, str]]:
    """The first witness of each broken symmetry-action rule, by checking
    every iso pairwise and the composition law on every composable pair."""
    out = _FirstWitnesses()
    ic, poset = sym.ic, sym.poset
    covered: list[str] = []
    for X in ic.objects:
        if X not in sym.fibers:
            out.add("fiber-total", (X,), "object has no fiber")
            continue
        if not brute_is_ideal(poset, sym.fibers[X]):
            out.add("fiber-ideal", (X,), "fiber is not an ideal of the poset")
        covered.extend(sym.fibers[X])
    if sorted(covered) != sorted(poset.elements):
        out.add("fiber-partition", (), "fibers do not partition the poset")
    for s in ic.morphisms:
        if s not in sym.isos:
            out.add("iso-total", (s,), "morphism has no order isomorphism")
            continue
        iso = sym.isos[s]
        checked = brute_order_iso(poset, iso.pairs)
        if not isinstance(checked, PartialOrderIso):
            out.add("iso-order", (s,), f"not an order isomorphism: {checked!r}")
            continue
        if not iso.dom <= sym.fibers.get(ic.src(s), frozenset()):
            out.add("iso-typing", (s,), "domain leaves the source fiber")
        if not iso.ran <= sym.fibers.get(ic.tgt(s), frozenset()):
            out.add("iso-typing", (s,), "range leaves the target fiber")
        if not brute_is_ideal(poset, iso.dom) or not brute_is_ideal(poset, iso.ran):
            out.add("iso-ideal", (s,), "domain or range is not an ideal")
    if out:
        return out
    for X in ic.objects:
        unit = tuple(sorted((x, x) for x in sym.fibers[X]))
        if sym.isos[ic.identity_of(X)].pairs != unit:
            out.add("functor-identity", (X,), "identity does not act as the identity of its fiber")
    for (s, t), st in ic.cat.table.items():
        after = dict(sym.isos[s].pairs)
        composite = tuple(sorted((a, after[b]) for a, b in sym.isos[t].pairs if b in after))
        if composite != sym.isos[st].pairs:
            out.add("functor-composition", (s, t), "Θ(s)∘Θ(t) differs from Θ(st)")
    for s in ic.morphisms:
        if sym.isos[ic.inv(s)].pairs != tuple(sorted((b, a) for a, b in sym.isos[s].pairs)):
            out.add("functor-inverse", (s,), "Θ(s°) differs from Θ(s)⁻¹")
    return out


def brute_partial_violations(bundle: PartialActionBundle) -> list[tuple[str, tuple, str]]:
    """The first witness of each broken partial-bundle rule, as
    ``validate_partial`` reports it, with axiom iv scanning every pair of
    morphisms for parallel s ≤ t."""
    out = _FirstWitnesses()
    ic, poset, strict = bundle.ic, bundle.poset, bundle.strict
    for s in ic.morphisms:
        if s not in bundle.maps:
            out.add("bundle-total", (s,), "morphism has no map")
    if out:
        return out
    inv = ic.inverse
    domains = {s: frozenset(b for _, b in bundle.maps[s].pairs) for s in ic.morphisms}
    lookup = {s: dict(bundle.maps[s].pairs) for s in ic.morphisms}
    for s in ic.morphisms:
        iso = bundle.maps[s]
        checked = brute_order_iso(poset, iso.pairs)
        if not isinstance(checked, PartialOrderIso):
            out.add("axiom-i", (s,), f"θ_s is not an order isomorphism: {checked!r}")
            continue
        if not strict and not brute_is_ideal(poset, domains[s]):
            out.add("axiom-i", (s,), "D_s is not an ideal")
        if bundle.maps[inv[s]].pairs != tuple(sorted((b, a) for a, b in iso.pairs)):
            out.add("axiom-i", (s,), "θ_{s°} is not the inverse of θ_s")
    idems = brute_idempotents(ic.cat)
    tops = idems if strict else [ic.cat.identity[x] for x in ic.objects]
    if set().union(*(domains[e] for e in tops)) != set(poset.elements):
        out.add("axiom-ii", (), "identity domains do not cover the poset")
    for e in idems:
        if bundle.maps[e].pairs != tuple(sorted((x, x) for x in domains[e])):
            out.add("axiom-iii", (e,), "θ_e is not the identity of D_e")
    for s, t in itertools.product(ic.morphisms, repeat=2):
        if s == t or not brute_natural_leq(ic.cat, s, t):
            continue
        ds, dt = domains[inv[s]], domains[inv[t]]
        if not strict and not ds <= dt:
            out.add("axiom-iv", (s, t), "s ≤ t but D_{s°} is not inside D_{t°}")
        for x in sorted(ds & dt):
            if lookup[t].get(x) != lookup[s].get(x):
                out.add("axiom-iv", (s, t, x), "θ_t does not restrict to θ_s")
    for s in ic.morphisms:
        if not domains[s] <= domains[ic.cat.table[(s, inv[s])]]:
            out.add("axiom-v", (s,), "D_s leaves D_{ss°}")
    for (s, t), st in ic.cat.table.items():
        lhs = frozenset(lookup[s][x] for x in domains[inv[s]] & domains[t] if x in lookup[s])
        rhs = domains[s] & domains[st]
        if strict:
            if not lhs <= rhs:
                out.add("axiom-vi", (s, t), "θ_s(D_{s°} ∩ D_t) leaves D_s ∩ D_{st}")
        elif lhs != rhs:
            out.add("axiom-vi", (s, t), f"θ_s(D_{{s°}} ∩ D_t) = {sorted(lhs)} differs from D_s ∩ D_{{st}} = {sorted(rhs)}")
        for y in sorted(domains[t] & domains[inv[s]]):
            x = lookup[inv[t]].get(y)
            if x is None or lookup[t].get(x) != y:
                continue
            via, direct = lookup[s].get(y), lookup[st].get(x)
            if strict:
                if via is not None and direct is not None and via != direct:
                    out.add("axiom-vi", (s, t, x), "θ_s∘θ_t and θ_{st} disagree where both are defined")
            elif via != direct or via is None:
                out.add("axiom-vi", (s, t, x), f"θ_s∘θ_t gives {via!r} but θ_{{st}} gives {direct!r}")
    return out


# ---------------------------------------------------------------------------
# operation counts


class CountingTable(dict):
    """A composition table that counts its lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


# ---------------------------------------------------------------------------
# derived categories from their definitions


def _join_pairs(typing: dict[str, tuple[str, str]]) -> list[tuple[str, str]]:
    """Every (g, f) with tgt f = src g, by grouping the arrows on their source."""
    starting: dict[str, list[str]] = {}
    for g, (x, _) in typing.items():
        starting.setdefault(x, []).append(g)
    return [(g, f) for f, (_, y) in typing.items() for g in starting.get(y, ())]


def brute_expansion(sz) -> tuple[dict[str, tuple[str, str]], dict[tuple[str, str], str]]:
    """Typing and table of an expansion from its definition: the arrow
    (A, s) runs from s°A = {s°a : a ∈ A} to A, and (x, s)(y, t) = (x, st)."""
    base = sz.origin.cat
    inverse = brute_inverse_map(base)
    typing = {}
    for name, (key, s) in sz.arrows.items():
        members = sz.carrier.elements[key].members
        back = "{" + ",".join(sorted(base.table[(inverse[s], a)] for a in members)) + "}"
        typing[name] = (back, key)
    table = {}
    for g, f in _join_pairs(typing):
        (x, s), (_, t) = sz.arrows[g], sz.arrows[f]
        table[(g, f)] = f"({x}|{base.table[(s, t)]})"
    return typing, table


def brute_split(
    ic: InverseCategory, triples: list[tuple[str, str, str]]
) -> tuple[dict[str, tuple[str, str]], dict[tuple[str, str], str]]:
    """Typing and table of the triples (e, s, f), named ``(e|s|f)``, from
    (src s, e) to (tgt s, f), composed by (f, t, g)(e, s, f) = (e, ts, g)."""
    cat = ic.cat
    data = {f"({e}|{s}|{f})": (e, s, f) for e, s, f in triples}
    typing = {
        name: (f"({cat.src[s]}|{e})", f"({cat.tgt[s]}|{f})") for name, (e, s, f) in data.items()
    }
    table = {}
    for b, a in _join_pairs(typing):
        (_, t, g), (e, s, _) = data[b], data[a]
        table[(b, a)] = f"({e}|{cat.table[(t, s)]}|{g})"
    return typing, table


def brute_completion_triples(ic: InverseCategory) -> list[tuple[str, str, str]]:
    """The (e, s, f) with e, f idempotent and se = s = fs, by full search."""
    cat = ic.cat
    idem = brute_idempotents(cat)
    return [
        (e, s, f)
        for s in cat.morphisms
        for e in idem
        for f in idem
        if cat.table.get((s, e)) == s and cat.table.get((f, s)) == s
    ]


def brute_groupoid_triples(ic: InverseCategory) -> list[tuple[str, str, str]]:
    """The (s°s, s, ss°), one per morphism."""
    cat, inverse = ic.cat, brute_inverse_map(ic.cat)
    return [(cat.table[(inverse[s], s)], s, cat.table[(s, inverse[s])]) for s in cat.morphisms]


def brute_iic(poset: Poset) -> tuple[dict[str, tuple[str, str]], dict[tuple[str, str], str]]:
    """Typing and table of the category of order isos between ideals, from
    the ideals of ``brute_ideals`` and the isos of ``brute_order_isos``:
    U -> V for each iso between an ideal inside U and one inside V,
    composed on the largest domain where the chain is defined (once per
    pair of isos)."""
    ideals = brute_ideals(poset.elements, poset.leq)
    isos = [
        f
        for a in ideals
        for b in ideals
        for f in brute_order_isos(tuple(a), tuple(b), poset.leq)
    ]
    names = {u: "{" + ",".join(sorted(u)) + "}" for u in ideals}
    labels = [",".join(f"{a}:{b}" for a, b in sorted(f.items())) for f in isos]
    data = {
        f"{names[u]}->{names[v]}|{labels[k]}": (u, v, k)
        for u in ideals
        for v in ideals
        for k, f in enumerate(isos)
        if set(f) <= u and set(f.values()) <= v
    }
    typing = {n: (names[u], names[v]) for n, (u, v, _) in data.items()}
    composite: dict[tuple[int, int], str] = {}
    table = {}
    for g, f in _join_pairs(typing):
        (_, w, k), (u, _, j) = data[g], data[f]
        label = composite.get((k, j))
        if label is None:
            t, s = isos[k], isos[j]
            label = composite[(k, j)] = ",".join(
                f"{a}:{t[b]}" for a, b in sorted(s.items()) if b in t
            )
        table[(g, f)] = f"{names[u]}->{names[w]}|{label}"
    return typing, table


def iic_morphism_data(name: str) -> tuple[str, str, tuple[tuple[str, str], ...]]:
    """Parse a build_Iic morphism name back into (source, target, pairs)."""
    typing, _, label = name.partition("|")
    u, _, v = typing.partition("->")
    pairs = tuple(
        (a, b)
        for chunk in label.split(",")
        if chunk
        for a, b in (chunk.split(":"),)
    )
    return u, v, pairs


# ---------------------------------------------------------------------------
# spec files

_SPEC_TOP_KEYS = {"invcat-spec", "objects", "morphisms", "identities", "composition", "inverse"}
_SPEC_REQUIRED = _SPEC_TOP_KEYS - {"inverse"}


def _spec_want(value, kind: type, where: str):
    if not isinstance(value, kind):
        raise ParseError(f"{where} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _spec_reject_extra(mapping: dict, allowed: set[str], where: str) -> None:
    extra = sorted(set(mapping) - allowed)
    if extra:
        raise ParseError(f"unknown field(s) {extra} in {where}", fields=extra)


def brute_parse_spec(text: str) -> tuple[FiniteCategory, dict[str, str] | None]:
    """``parse_category`` as an ordered scan: every schema rule, entry by
    entry in document order, so the first offender is the one reported.
    The JSON layer and the name checks of ``FiniteCategory.build`` are
    the library's own."""
    data = load_json(text, "<string>")
    _spec_want(data, dict, "top level")
    _spec_reject_extra(data, _SPEC_TOP_KEYS, "top level")
    missing = sorted(_SPEC_REQUIRED - set(data))
    if missing:
        raise ParseError(f"missing required field(s) {missing}", fields=missing)
    version = data["invcat-spec"]
    if isinstance(version, bool) or not isinstance(version, int) or version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema version {version!r}; expected {SCHEMA_VERSION}")

    objects = _spec_want(data["objects"], list, "objects")
    for k, x in enumerate(objects):
        _spec_want(x, str, "object name")
        if x in objects[:k]:
            raise ParseError(f"duplicate object name {x!r}")

    morphisms: dict[str, tuple[str, str]] = {}
    for entry in _spec_want(data["morphisms"], list, "morphisms"):
        _spec_want(entry, dict, "morphism entry")
        _spec_reject_extra(entry, {"name", "src", "tgt"}, f"morphism entry {entry}")
        for key in ("name", "src", "tgt"):
            if key not in entry:
                raise ParseError(f"morphism entry {entry} lacks {key!r}")
            _spec_want(entry[key], str, f"morphism {key}")
        if entry["name"] in morphisms:
            raise ParseError(f"duplicate morphism name {entry['name']!r}")
        morphisms[entry["name"]] = (entry["src"], entry["tgt"])

    identities = _spec_want(data["identities"], dict, "identities")
    for k, v in identities.items():
        _spec_want(v, str, f"identity of {k}")

    composition: dict[tuple[str, str], str] = {}
    for entry in _spec_want(data["composition"], list, "composition"):
        _spec_want(entry, dict, "composition entry")
        _spec_reject_extra(entry, {"left", "right", "result"}, f"composition entry {entry}")
        for key in ("left", "right", "result"):
            if key not in entry:
                raise ParseError(f"composition entry {entry} lacks {key!r}")
            _spec_want(entry[key], str, f"composition {key}")
        pair = (entry["left"], entry["right"])
        if pair in composition:
            raise ParseError(f"duplicate composition entry for {pair}")
        composition[pair] = entry["result"]

    inverse = None
    if "inverse" in data:
        inverse = _spec_want(data["inverse"], dict, "inverse")
        for k, v in inverse.items():
            _spec_want(v, str, f"inverse of {k}")

    return FiniteCategory.build(objects, morphisms, identities, composition), inverse


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
    return join_by_product(
        ["*"],
        {n: ("*", "*") for n in names},
        {"*": _name(IDENTITY)},
        lambda g, f: _name(_compose(names[g], names[f])),
        {n: _name(_inverse(p)) for n, p in names.items()},
    )


def cyclic_group(n: int) -> InverseCategory:
    """Z_n on one object, elements named "0" .. "n-1"."""
    return join_by_product(
        ["*"],
        {str(i): ("*", "*") for i in range(n)},
        {"*": "0"},
        lambda g, f: str((int(g) + int(f)) % n),
        {str(i): str(-i % n) for i in range(n)},
    )


#: largest closure ``partial_injection_categories`` yields
MOST_ARROWS = 20


@st.composite
def partial_injection_categories(draw) -> InverseCategory:
    """A random inverse category of partial injections between 2-3 sets of
    1-3 points: 1-3 drawn injections closed under composition and inversion,
    with the identities added.  Every finite inverse category embeds in one
    of these (Wagner-Preston).  An arrow is named by its graph: source
    object, the images of the source points ("-" where undefined) and the
    target object, as in ``A0-B``.  Closures above ``MOST_ARROWS`` arrows
    are rejected."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    objects = "ABC"[: len(sizes)]
    ends = st.integers(0, len(sizes) - 1)

    @st.composite
    def injections(draw) -> tuple[int, int, tuple]:
        x, y = draw(ends), draw(ends)
        images = draw(st.permutations([*range(sizes[y]), *[None] * sizes[x]]))
        return x, y, tuple(images[: sizes[x]])

    def inverse(arrow: tuple) -> tuple:
        x, y, images = arrow
        return y, x, tuple(images.index(b) if b in images else None for b in range(sizes[y]))

    def compose(g: tuple, f: tuple) -> tuple:
        """g after f, for f ending where g starts."""
        return f[0], g[1], tuple(None if b is None else g[2][b] for b in f[2])

    def name(arrow: tuple) -> str:
        x, y, images = arrow
        return objects[x] + "".join("-" if b is None else str(b) for b in images) + objects[y]

    drawn = draw(st.lists(injections(), min_size=1, max_size=3))
    identities = {x: (x, x, tuple(range(n))) for x, n in enumerate(sizes)}
    arrows = {*identities.values(), *drawn, *map(inverse, drawn)}
    frontier = set(arrows)
    while frontier:
        pairs = itertools.chain(
            itertools.product(frontier, arrows), itertools.product(arrows, frontier)
        )
        frontier = {compose(g, f) for f, g in pairs if f[1] == g[0]} - arrows
        arrows |= frontier
        assume(len(arrows) <= MOST_ARROWS)
    named = {name(a): a for a in sorted(arrows, key=name)}
    return join_by_product(
        objects,
        {n: (objects[x], objects[y]) for n, (x, y, _) in named.items()},
        {objects[x]: name(unit) for x, unit in identities.items()},
        lambda g, f: name(compose(named[g], named[f])),
        {n: name(inverse(a)) for n, a in named.items()},
    )


def join_by_product(objects, typing, identities, product, inverse) -> InverseCategory:
    """The category whose arrows are ``typing`` (name -> (source, target))
    and whose composite g∘f is named ``product(g, f)``, built by
    ``join_category``: each arrow m is the triple (source, m, target) over
    the base category of ``typing`` with that table on the composable
    pairs and the base inverse map ``inverse`` (certified there, so a wrong
    one is only slower).  A composite outside the arrows is a base arrow
    between two fresh objects, so that the join names it as ``product``
    does."""
    table = {(g, f): product(g, f) for f, (_, y) in typing.items() for g, (x, _) in typing.items() if x == y}
    outside = {h: (0, 1) for h in table.values() if h not in typing}  # no object is named by an int
    base = FiniteCategory.build([*objects, 0, 1], {**typing, **outside}, identities, table)
    triples = {m: (a, m, b) for m, (a, b) in typing.items()}
    return join_category(objects, triples, identities, InverseCategory(base, inverse), lambda _a, m, _b: m)
