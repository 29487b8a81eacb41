"""Finite posets, their ideals, and partial order isomorphisms.

The central construction is ``build_Iic``: the inverse category whose objects
are the ideals of a finite poset and whose morphisms U -> V are the order
isomorphisms between an ideal contained in U and an ideal contained in V.
It plays the role for ordered sets that the symmetric inverse monoid plays
for plain sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .core import InverseCategory, join_category
from .errors import SizeCapExceeded
from .limits import DEFAULT_MAX_ELEMENTS, DEFAULT_MAX_POSET


@dataclass(frozen=True)
class Poset:
    """A finite poset: elements in declaration order plus the full ≤ relation."""

    elements: tuple[str, ...]
    relation: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        eset = set(self.elements)
        assert len(eset) == len(self.elements), "duplicate poset elements"
        for a, b in self.relation:
            assert a in eset and b in eset, "relation references unknown element"
        for a in self.elements:
            assert (a, a) in self.relation, "relation not reflexive"
        for a, b in self.relation:
            if a != b:
                assert (b, a) not in self.relation, "relation not antisymmetric"
            for c in self.elements:
                if (b, c) in self.relation:
                    assert (a, c) in self.relation, "relation not transitive"

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.relation

    def down_set(self, x: str) -> frozenset[str]:
        return frozenset(a for a in self.elements if self.leq(a, x))

    def index(self, x: str) -> int:
        return self.elements.index(x)


def poset_from_function(elements: Sequence[str], leq: Callable[[str, str], bool]) -> Poset:
    """Materialise a poset from a ≤ predicate (checked by Poset itself)."""
    rel = frozenset(
        (a, b) for a in elements for b in elements if leq(a, b)
    )
    return Poset(tuple(elements), rel)


def chain_poset(names: Sequence[str]) -> Poset:
    order = {x: i for i, x in enumerate(names)}
    return poset_from_function(names, lambda a, b: order[a] <= order[b])


def antichain_poset(names: Sequence[str]) -> Poset:
    return poset_from_function(names, lambda a, b: a == b)


def is_ideal(poset: Poset, subset: Iterable[str]) -> bool:
    """Downward closure test; ideals here may be empty."""
    members = set(subset)
    return all(
        a in members
        for b in members
        for a in poset.elements
        if poset.leq(a, b)
    )


def ideals(poset: Poset, max_size: int = DEFAULT_MAX_POSET) -> tuple[frozenset[str], ...]:
    """All ideals (the empty set included), ordered by size then element indices."""
    n = len(poset.elements)
    if n > max_size:
        raise SizeCapExceeded(
            f"poset has {n} elements; ideal enumeration capped at {max_size}",
            size=n,
            cap=max_size,
        )
    found = [
        frozenset(sub)
        for r in range(n + 1)
        for sub in itertools.combinations(poset.elements, r)
        if is_ideal(poset, sub)
    ]
    found.sort(key=lambda s: (len(s), tuple(sorted(poset.index(x) for x in s))))
    return tuple(found)


def subset_name(subset: Iterable[str]) -> str:
    return "{" + ",".join(sorted(subset)) + "}"


# ---------------------------------------------------------------------------
# partial order isomorphisms


@dataclass(frozen=True)
class PartialOrderIso:
    """A bijection between two subsets of one poset, preserving ≤ both ways."""

    pairs: tuple[tuple[str, str], ...]

    @staticmethod
    def make(poset: Poset, pairs: Iterable[tuple[str, str]]) -> "PartialOrderIso":
        ordered = tuple(sorted(pairs))
        dom = [a for a, _ in ordered]
        ran = [b for _, b in ordered]
        assert len(set(dom)) == len(dom), "mapping not functional"
        assert len(set(ran)) == len(ran), "mapping not injective"
        for (a, b), (c, d) in itertools.product(ordered, repeat=2):
            assert poset.leq(a, c) == poset.leq(b, d), (
                "mapping does not preserve and reflect order",
                (a, b),
                (c, d),
            )
        return PartialOrderIso(ordered)

    @property
    def dom(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.pairs)

    @property
    def ran(self) -> frozenset[str]:
        return frozenset(b for _, b in self.pairs)

    def apply(self, x: str) -> str:
        for a, b in self.pairs:
            if a == x:
                return b
        raise KeyError(x)

    def inverse(self) -> "PartialOrderIso":
        return PartialOrderIso(tuple(sorted((b, a) for a, b in self.pairs)))

    def label(self) -> str:
        return ",".join(f"{a}:{b}" for a, b in self.pairs)


def identity_iso(subset: Iterable[str]) -> PartialOrderIso:
    return PartialOrderIso(tuple(sorted((x, x) for x in subset)))


def compose_partial_isos(t: PartialOrderIso, s: PartialOrderIso) -> PartialOrderIso:
    """t after s, on the largest domain where the chain is defined."""
    lookup = dict(t.pairs)
    pairs = tuple(
        sorted((a, lookup[b]) for a, b in s.pairs if b in lookup)
    )
    return PartialOrderIso(pairs)


def order_isos_between(poset: Poset, dom: frozenset[str], ran: frozenset[str]) -> list[PartialOrderIso]:
    """Every order isomorphism from dom onto ran (empty when sizes differ)."""
    if len(dom) != len(ran):
        return []
    dom_sorted = sorted(dom)
    found = []
    for image in itertools.permutations(sorted(ran)):
        pairs = tuple(zip(dom_sorted, image))
        if all(
            poset.leq(a, c) == poset.leq(b, d)
            for (a, b), (c, d) in itertools.product(pairs, repeat=2)
        ):
            found.append(PartialOrderIso(tuple(sorted(pairs))))
    return found


# ---------------------------------------------------------------------------
# the inverse category of a poset


def build_Iic(poset: Poset, max_elements: int = DEFAULT_MAX_ELEMENTS) -> InverseCategory:
    """Inverse category of partial order isomorphisms between ideals.

    Objects are the ideals of the poset (named ``{a,b}``; the empty ideal is
    ``{}``).  A morphism U -> V is a triple (U, V, s) where s is an order
    isomorphism from an ideal contained in U onto an ideal contained in V;
    composition composes the partial maps on the largest defined domain, and
    the identity of U is the total identity on U.
    """
    ids = ideals(poset)
    object_names = [subset_name(u) for u in ids]
    by_name = dict(zip(object_names, ids))

    # all order isos between pairs of ideals, keyed by (dom, ran)
    isos: list[PartialOrderIso] = []
    for u, v in itertools.product(ids, repeat=2):
        isos.extend(order_isos_between(poset, u, v))

    data: dict[str, tuple[str, str, PartialOrderIso]] = {}
    for uname, vname in itertools.product(object_names, repeat=2):
        u, v = by_name[uname], by_name[vname]
        for s in isos:
            if s.dom <= u and s.ran <= v:
                name = f"{uname}->{vname}|{s.label()}"
                data[name] = (uname, vname, s)
                if len(data) > max_elements:
                    raise SizeCapExceeded(
                        f"morphism count exceeded cap {max_elements}",
                        cap=max_elements,
                    )

    identities = {
        uname: f"{uname}->{uname}|{identity_iso(by_name[uname]).label()}"
        for uname in object_names
    }

    def product(g: str, f: str) -> str:
        (_, v, t), (u, _, s) = data[g], data[f]
        return f"{u}->{v}|{compose_partial_isos(t, s).label()}"

    typing = {name: (u, v) for name, (u, v, _) in data.items()}
    return join_category(object_names, typing, identities, product)


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
