"""Finite posets, their ideals, and partial order isomorphisms.

The central construction is ``build_Iic``: the inverse category whose objects
are the ideals of a finite poset and whose morphisms U -> V are the order
isomorphisms between an ideal contained in U and an ideal contained in V.
It plays the role for ordered sets that the symmetric inverse monoid plays
for plain sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .core import InverseCategory, join_category
from .errors import SizeCapExceeded
from .limits import DEFAULT_MAX_ELEMENTS, DEFAULT_MAX_POSET


@dataclass(frozen=True)
class Poset:
    """A finite poset: elements in declaration order plus the full ≤ relation.

    Construction indexes the poset once: every element gets a bit position
    (its declaration index) and a down-set bitmask, a Python int whose bit i
    is set when ``elements[i]`` lies below it.  The axioms are checked on
    these masks in O(|relation|) mask operations (a broken one raises
    AssertionError, also under ``python -O``), and ``is_ideal``,
    ``ideals``, ``down_set`` and ``PartialOrderIso.make`` read them; ``leq``
    stays a lookup in ``relation``.
    """

    elements: tuple[str, ...]
    relation: frozenset[tuple[str, str]]
    _pos: dict[str, int] = field(init=False, repr=False, compare=False)
    _down: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pos = {x: i for i, x in enumerate(self.elements)}
        if len(pos) != len(self.elements):
            raise AssertionError("duplicate poset elements")
        down = [0] * len(pos)
        up = [0] * len(pos)
        for a, b in self.relation:
            if a not in pos or b not in pos:
                raise AssertionError("relation references unknown element")
            down[pos[b]] |= 1 << pos[a]
            up[pos[a]] |= 1 << pos[b]
        for i in range(len(down)):
            if not down[i] >> i & 1:
                raise AssertionError("relation not reflexive")
        # pair by pair in relation order, as a scan would: (b, a) related
        # back, or something above b that is not above a
        for a, b in self.relation:
            i, j = pos[a], pos[b]
            if i != j and down[i] >> j & 1:
                raise AssertionError("relation not antisymmetric")
            if up[j] & ~up[i]:
                raise AssertionError("relation not transitive")
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_down", tuple(down))

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.relation

    def down_set(self, x: str) -> frozenset[str]:
        return frozenset(self._below(x, -1))

    def index(self, x: str) -> int:
        return self._pos[x]

    def _below(self, x: str, within: int) -> Iterator[str]:
        """The elements of the bitmask ``within`` that lie below x."""
        return (self.elements[i] for i in _bits(self._down[self._pos[x]] & within))

    def _mask(self, subset: Iterable[str]) -> int:
        """The bits of the members of ``subset`` that are elements."""
        pos = self._pos
        out = 0
        for x in subset:
            if x in pos:
                out |= 1 << pos[x]
        return out


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    """Downward closure test; ideals here may be empty.

    Members that are not elements of the poset are ignored.  Costs one mask
    test per member: the down-set of each member must lie in the subset.
    """
    members = tuple(subset)
    bits = poset._mask(members)
    down, pos = poset._down, poset._pos
    return all(not down[pos[b]] & ~bits for b in members if b in pos)


def ideals(poset: Poset) -> tuple[frozenset[str], ...]:
    """All ideals (the empty set included), ordered by size then element
    indices.  Raises SIZE_CAP_EXCEEDED above ``DEFAULT_MAX_POSET`` elements."""
    n = len(poset.elements)
    if n > DEFAULT_MAX_POSET:
        raise SizeCapExceeded(
            f"poset has {n} elements; ideal enumeration capped at {DEFAULT_MAX_POSET}",
            size=n,
            cap=DEFAULT_MAX_POSET,
        )
    # combinations of the elements come in (size, element indices) order
    return tuple(
        frozenset(sub)
        for r in range(n + 1)
        for sub in itertools.combinations(poset.elements, r)
        if is_ideal(poset, sub)
    )


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
        """Check and build the map; AssertionError names the first failure.

        The order test asks, for each pair (c, f c), that f map
        down(c) ∩ dom onto down(f c) ∩ ran, one bit per relation pair
        inside dom.  Only when it fails are the points looked up, so that
        the assertion names the first point outside the poset, and then the
        pairwise scan runs, so that it names the first offending pair of
        pairs in sorted order.
        """
        ordered = tuple(sorted(pairs))
        dom = [a for a, _ in ordered]
        ran = [b for _, b in ordered]
        if len(set(dom)) != len(dom):
            raise AssertionError("mapping not functional")
        if len(set(ran)) != len(ran):
            raise AssertionError("mapping not injective")
        if _maps_down_sets_onto(poset, ordered):
            return PartialOrderIso(ordered)
        for point in itertools.chain.from_iterable(ordered):
            if point not in poset._pos:
                raise AssertionError(("point outside the poset", point))
        for (a, b), (c, d) in itertools.product(ordered, repeat=2):
            if poset.leq(a, c) != poset.leq(b, d):
                raise AssertionError(("mapping does not preserve and reflect order", (a, b), (c, d)))
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


def _maps_down_sets_onto(poset: Poset, pairs: Sequence[tuple[str, str]]) -> bool:
    """Whether the bijection ``pairs`` sends down(c) ∩ dom onto
    down(f c) ∩ ran for every c in dom, i.e. preserves and reflects ≤."""
    pos, down = poset._pos, poset._down
    if not all(a in pos and b in pos for a, b in pairs):
        return False
    image = {pos[a]: 1 << pos[b] for a, b in pairs}  # bit position -> image bit
    dom_bits = poset._mask(a for a, _ in pairs)
    ran_bits = poset._mask(b for _, b in pairs)
    for c, d in pairs:
        mapped = 0
        for i in _bits(down[pos[c]] & dom_bits):
            mapped |= image[i]
        if mapped != down[pos[d]] & ran_bits:
            return False
    return True


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
        if _maps_down_sets_onto(poset, pairs):
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
    the identity of U is the total identity on U.  Each iso s gives a
    morphism per pair U ⊇ dom s, V ⊇ ran s; SIZE_CAP_EXCEEDED is raised in
    the walk over isos once that count passes ``max_elements``.  Morphisms
    are the triples (U, s, V) of ``join_category`` over iso labels,
    composed once per pair of isos; (U, s, V)° = (V, s⁻¹, U) is certified
    there, not searched for.
    """
    ids = ideals(poset)
    object_names = [subset_name(u) for u in ids]
    above = {u: sum(u <= w for w in ids) for u in ids}

    # all order isos between pairs of ideals, labelled, with domain and range
    isos: list[tuple[str, PartialOrderIso, frozenset[str], frozenset[str]]] = []
    count = 0
    for u, v in itertools.product(ids, repeat=2):
        for s in order_isos_between(poset, u, v):
            isos.append((s.label(), s, u, v))
            count += above[u] * above[v]
            if count > max_elements:
                raise SizeCapExceeded(
                    f"morphism count exceeded cap {max_elements}",
                    cap=max_elements,
                )

    arrows: dict[str, tuple[str, str, str]] = {}
    for uname, u in zip(object_names, ids):
        for vname, v in zip(object_names, ids):
            for label, _, dom, ran in isos:
                if dom <= u and ran <= v:
                    arrows[f"{uname}->{vname}|{label}"] = (uname, label, vname)

    identities = {
        uname: f"{uname}->{uname}|{identity_iso(u).label()}"
        for uname, u in zip(object_names, ids)
    }
    columns = {  # label of s -> label of t -> label of t∘s
        ls: {lt: compose_partial_isos(t, s).label() for lt, t, _, _ in isos} for ls, s, _, _ in isos
    }
    inverse = {label: s.inverse().label() for label, s, _, _ in isos}
    return join_category(object_names, arrows, identities, columns, inverse, lambda u, s, v: f"{u}->{v}|{s}")
