"""Independent brute-force recomputations used to cross-check the library.

Everything here works from the raw composition table by exhaustive search,
deliberately avoiding the library's cached structure and formulas, so that
agreement between the two is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import itertools
from typing import Callable

from invcat.core import FiniteCategory


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
