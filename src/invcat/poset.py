"""Finite posets stored as down-set masks, their ideals, and partial order isomorphisms.

The central construction is ``build_Iic``: the inverse category whose objects
are the ideals of a finite poset and whose morphisms U -> V are the order
isomorphisms between an ideal contained in U and an ideal contained in V.
It plays the role for ordered sets that the symmetric inverse monoid plays
for plain sets.

This module owns the coding of an order (down-set masks, lower covers,
element positions); other modules ask it their order questions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import and_
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .core import FiniteCategory, InverseCategory, join_category
from .errors import PreconditionFailed, SizeCapExceeded
from .limits import DEFAULT_MAX_ELEMENTS, DEFAULT_MAX_POSET


@dataclass(frozen=True)
class Poset:
    """A finite poset: elements in declaration order and their down-sets.

    ``down[i]``, the one stored form of the order, is the down-set bitmask
    of ``elements[i]``: bit j is set when ``elements[j]`` ≤ ``elements[i]``.
    Both are stored as tuples, whatever sequences are given.  Construction
    checks the axioms on the masks with one AND per pair a < b (a broken one
    raises PreconditionFailed); ``leq`` is a bit test, and ``relation``
    lists the pairs on each read.  ``_covers``, the positions of the lower
    covers (the Hasse diagram) parallel to ``down``, is derived on first
    use, by the order tests that walk it.
    """

    elements: tuple[str, ...]
    down: tuple[int, ...]
    _pos: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "down", tuple(self.down))
        pos = {x: i for i, x in enumerate(self.elements)}
        n = len(self.elements)
        if len(pos) != n:
            raise PreconditionFailed("duplicate poset elements")
        down = self.down
        if len(down) != n:
            raise PreconditionFailed(f"{len(down)} down-set masks for {n} poset elements")
        if any(d >> n for d in down):
            raise PreconditionFailed("relation references unknown element")
        if any(not d >> i & 1 for i, d in enumerate(down)):
            raise PreconditionFailed("relation not reflexive")
        # each a < b, b then a in element order: down(a) ⊆ down(b) - b
        for i, d in enumerate(down):
            below = d & ~(1 << i)
            for j in _bits(below):
                if down[j] & ~below:
                    axiom = "antisymmetric" if down[j] >> i & 1 else "transitive"
                    raise PreconditionFailed(f"relation not {axiom}")
        object.__setattr__(self, "_pos", pos)

    @cached_property
    def _covers(self) -> tuple[tuple[int, ...], ...]:
        """The positions of the lower covers of each element, lowest first,
        derived once on first use.

        The covers of x are the maximal elements of down(x) - x: take the
        highest remaining bit j, drop down(j) from what remains, and drop
        from the picks so far those below j."""
        down = self.down
        covers = []
        for i, d in enumerate(down):
            rest, top = d & ~(1 << i), 0
            while rest:
                j = rest.bit_length() - 1
                top = top & ~down[j] | 1 << j
                rest &= ~down[j]
            covers.append(tuple(_bits(top)))
        return tuple(covers)

    @property
    def relation(self) -> frozenset[tuple[str, str]]:
        """The pairs (a, b) with a ≤ b, listed from the masks on each read."""
        return frozenset((self.elements[j], b) for b, d in zip(self.elements, self.down) for j in _bits(d))

    def leq(self, a: str, b: str) -> bool:
        i, j = self._pos.get(a), self._pos.get(b)
        return i is not None and j is not None and self.down[j] >> i & 1 == 1

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
    return poset_from_relation(elements, ((a, b) for b in elements for a in elements if leq(a, b)))


def poset_from_relation(elements: Sequence[str], pairs: Iterable[tuple[str, str]]) -> Poset:
    """The poset whose ≤ is the set of ``pairs``, checked as ``Poset`` does."""
    pos = {x: i for i, x in enumerate(elements)}
    if len(pos) != len(elements):
        raise PreconditionFailed("duplicate poset elements")
    down = [0] * len(pos)
    for a, b in pairs:
        if a not in pos or b not in pos:
            raise PreconditionFailed("relation references unknown element")
        down[pos[b]] |= 1 << pos[a]
    return Poset(tuple(elements), tuple(down))


def chain_poset(names: Sequence[str]) -> Poset:
    return poset_from_relation(names, itertools.combinations_with_replacement(names, 2))


def antichain_poset(names: Sequence[str]) -> Poset:
    return poset_from_relation(names, zip(names, names))


def is_ideal(poset: Poset, subset: Iterable[str]) -> bool:
    """Downward closure test; ideals here may be empty.

    Members that are not elements of the poset are ignored.  Costs one mask
    test per member: the down-set of each member must lie in the subset.
    """
    members = tuple(subset)
    bits = poset._mask(members)
    down, pos = poset.down, poset._pos
    return all(not down[pos[b]] & ~bits for b in members if b in pos)


def subposet(poset: Poset, subset: Iterable[str]) -> Poset:
    """The order that the members of ``subset`` which are elements inherit,
    in element order: each down-set mask cut to them, its bits moved to
    their new positions."""
    bits = poset._mask(subset)
    keep = list(_bits(bits))
    moved = {i: 1 << k for k, i in enumerate(keep)}
    return Poset(
        tuple(map(poset.elements.__getitem__, keep)),
        tuple(sum(map(moved.__getitem__, _bits(poset.down[i] & bits))) for i in keep),
    )


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
    """A bijection between two subsets of one poset, preserving ≤ both ways.

    A partial bijection is its set of pairs, so ``pairs`` is stored sorted,
    as a tuple, whatever iterable is given: equal maps are equal isos with
    equal hashes.  ``ran`` and ``point_map`` (each point to its image) are
    derived once, on first use; ``dom``, read once per validation, on each read.
    """

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))

    @staticmethod
    def make(poset: Poset, pairs: Iterable[tuple[str, str]]) -> "PartialOrderIso":
        """Check and build the map; PreconditionFailed carries its failure."""
        iso = PartialOrderIso(pairs)
        failure = order_iso_failure(poset, iso.pairs)
        if failure is not None:
            raise PreconditionFailed(f"not an order isomorphism: {failure!r}", failure=failure)
        return iso

    @property
    def dom(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.pairs)

    @cached_property
    def ran(self) -> frozenset[str]:
        return frozenset(b for _, b in self.pairs)

    @cached_property
    def point_map(self) -> dict[str, str]:
        return dict(self.pairs)

    def apply(self, x: str) -> str:
        return self.point_map[x]

    def inverse(self) -> "PartialOrderIso":
        return PartialOrderIso((b, a) for a, b in self.pairs)

    def label(self) -> str:
        return ",".join(f"{a}:{b}" for a, b in self.pairs)


def order_iso_failure(
    poset: Poset, pairs: Sequence[tuple[str, str]], between_ideals: bool | None = None
) -> str | tuple | None:
    """Why the sorted ``pairs`` are not a partial order isomorphism of
    ``poset`` (not functional, not injective, a point outside the poset, or
    the first pair of pairs on which ≤ is not preserved and reflected), or
    None.  The order test is ``_maps_order_onto``, told ``between_ideals``
    when the caller knows it; only when it fails are the pairs scanned."""
    dom = [a for a, _ in pairs]
    ran = [b for _, b in pairs]
    if len(set(dom)) != len(dom):
        return "mapping not functional"
    if len(set(ran)) != len(ran):
        return "mapping not injective"
    if _maps_order_onto(poset, dom, ran, between_ideals):
        return None
    for point in itertools.chain.from_iterable(pairs):
        if point not in poset._pos:
            return ("point outside the poset", point)
    for (a, b), (c, d) in itertools.product(pairs, repeat=2):
        if poset.leq(a, c) != poset.leq(b, d):
            return ("mapping does not preserve and reflect order", (a, b), (c, d))
    return None


def _maps_order_onto(poset: Poset, dom: list[str], ran: list[str], between_ideals: bool | None) -> bool:
    """Whether the bijection dom[i] -> ran[i] of elements preserves and
    reflects ≤.

    An identity map passes untested.  Between ideals, the lower covers of
    each point must map onto those of its image (``_mapped_covers``): ≤ on
    an ideal is the transitive closure of its covers.  Other sides take
    ``_maps_down_sets_onto``."""
    pos = poset._pos
    if not all(a in pos and b in pos for a, b in zip(dom, ran)):
        return False
    if dom == ran:
        return True
    if between_ideals is None:
        between_ideals = is_ideal(poset, dom) and is_ideal(poset, ran)
    if not between_ideals:
        return _maps_down_sets_onto(poset, dom, ran)
    return list(_mapped_covers(poset, dom, ran)) == list(_mapped_covers(poset, ran, ran))


def _maps_down_sets_onto(poset: Poset, dom: list[str], ran: list[str]) -> bool:
    """Whether the bijection dom[i] -> ran[i] of elements and its inverse
    are monotone, by a scan of the relation pairs inside dom and ran."""
    return monotone_failure(poset, dom, ran, False) is None and monotone_failure(poset, ran, dom, False) is None


def _mapped_covers(poset: Poset, dom: Sequence[str], image: Sequence[str]) -> Iterator[int]:
    """For each point of ``dom``, an ideal, the bits of the images of its
    lower covers under the injection dom[i] -> image[i] into the poset."""
    pos, covers = poset._pos, poset._covers
    image_bit = {pos[x]: 1 << pos[y] for x, y in zip(dom, image)}
    return (sum(map(image_bit.__getitem__, covers[pos[x]])) for x in dom)


def monotone_failure(poset: Poset, dom: Sequence[str], image: Sequence, dom_is_ideal: bool) -> tuple[str, str] | None:
    """The least pair (a, b) of elements a < b of ``dom`` whose images
    under dom[i] -> image[i] are elements out of order, or None when the
    map is monotone on its domain; images that are not elements are
    skipped.  When dom is an ideal and the images are distinct elements,
    a walk of the lower covers (``_mapped_covers``) decides first; only
    when it finds a cover out of order are the pairs scanned."""
    pos, down = poset._pos, poset.down
    if dom_is_ideal and all(map(pos.__contains__, image)) and len(set(image)) == len(image):
        if not any(map(and_, _mapped_covers(poset, dom, image), (~down[pos[y]] for y in image))):
            return None
    img = {pos[x]: pos.get(y) for x, y in zip(dom, image)}  # None: not an element
    bits = sum(1 << i for i in img)
    elements = poset.elements
    bad = (
        (elements[i], elements[k])
        for k, j in img.items()
        if j is not None
        for i in _bits(down[k] & bits & ~(1 << k))
        if img[i] is not None and not down[j] >> img[i] & 1
    )
    return min(bad, default=None)


def label_monotone_failure(
    poset: Poset, label: Mapping[str, str], lower: Mapping[str, Collection[str]]
) -> tuple[str, str] | None:
    """The least pair (a, b) of elements a ≤ b with label[a] outside
    lower[label[b]], or None when the element-keyed map ``label`` is
    monotone into the order whose lower sets are ``lower``: one AND per
    element, of down(b) with the mask of the elements labelled outside."""
    elements, down = poset.elements, poset.down
    labels = list(map(label.__getitem__, elements))
    outside = {f: ~poset._mask(itertools.compress(elements, map(lower[f].__contains__, labels))) for f in set(labels)}
    if not any(map(and_, down, map(outside.__getitem__, labels))):
        return None
    return min((elements[j], b) for b, d, f in zip(elements, down, labels) for j in _bits(d & outside[f]))


def identity_iso(subset: Iterable[str]) -> PartialOrderIso:
    return PartialOrderIso((x, x) for x in subset)


def compose_partial_isos(t: PartialOrderIso, s: PartialOrderIso) -> PartialOrderIso:
    """t after s, on the largest domain where the chain is defined."""
    after = t.point_map
    return PartialOrderIso((a, after[b]) for a, b in s.pairs if b in after)


def order_isos_between(poset: Poset, dom: frozenset[str], ran: frozenset[str]) -> list[PartialOrderIso]:
    """Every order isomorphism from dom onto ran (empty when sizes differ),
    ordered by the images of sorted dom, read as words over sorted ran.

    The map is extended one point of sorted dom at a time, trying the
    points of sorted ran in order; a branch is cut as soon as the candidate
    image does not relate to the images so far as the point relates to the
    points so far.  Candidates are first refined to those with as many
    points below and above them in ran as the point has in dom.  This is
    the refinement-and-backtrack search of Ullmann, "An algorithm for
    subgraph isomorphism", J. ACM 23 (1976), on down-set masks.  Between
    two antichains, where it cuts nothing, the permutations are listed
    directly."""
    if len(dom) != len(ran):
        return []
    left, right = sorted(dom), sorted(ran)
    if not all(map(poset._pos.__contains__, itertools.chain(left, right))):
        return []
    if _is_antichain(poset, left) and _is_antichain(poset, right):
        # every bijection is an iso, met in the search's order
        return [PartialOrderIso(zip(left, image)) for image in itertools.permutations(right)]
    below_l, above_l = _index_masks(poset, left)
    below_r, above_r = _index_masks(poset, right)
    shapes = list(zip(map(int.bit_count, below_r), map(int.bit_count, above_r)))
    candidates = [
        [q for q, shape in enumerate(shapes) if shape == want]
        for want in zip(map(int.bit_count, below_l), map(int.bit_count, above_l))
    ]
    found: list[PartialOrderIso] = []
    image: list[int] = []  # index into right of each point of left mapped so far

    def extend(k: int, used: int) -> None:
        if k == len(left):
            found.append(PartialOrderIso(zip(left, map(right.__getitem__, image))))
            return
        earlier = (1 << k) - 1
        want_below = sum(1 << image[j] for j in _bits(below_l[k] & earlier))
        want_above = sum(1 << image[j] for j in _bits(above_l[k] & earlier))
        for q in candidates[k]:
            if not used >> q & 1 and _fits(below_r[q] & used, above_r[q] & used, want_below, want_above):
                image.append(q)
                extend(k + 1, used | 1 << q)
                image.pop()

    extend(0, 0)
    return found


def _is_antichain(poset: Poset, points: list[str]) -> bool:
    """Whether no two of ``points`` (elements) are comparable: each
    down-set meets them in its own point alone, so the masks sum to theirs."""
    pos, down = poset._pos, poset.down
    bits = poset._mask(points)
    return sum(down[pos[x]] & bits for x in points) == bits


def _index_masks(poset: Poset, points: list[str]) -> tuple[list[int], list[int]]:
    """For each points[i], the indices j with points[j] ≤ points[i] and
    those with points[i] ≤ points[j], as bitmasks over the indices."""
    pos, down = poset._pos, poset.down
    at = [pos[x] for x in points]
    below = [sum(1 << j for j, p in enumerate(at) if down[i] >> p & 1) for i in at]
    above = [sum(1 << j for j, b in enumerate(below) if b >> i & 1) for i in range(len(at))]
    return below, above


def _fits(below: int, above: int, want_below: int, want_above: int) -> bool:
    """One candidate test of ``order_isos_between``: the mapped points below
    and above the candidate image are the images of those below and above
    the point."""
    return below == want_below and above == want_above


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
    are the triples (U, s, V) of ``join_category`` over the one-object
    inverse monoid of the isos, composed once per pair of isos into iso
    numbers; (U, s, V)° = (V, s⁻¹, U) is certified there, not searched for.
    An iso is coded as the image position of each point, n where it is
    undefined and at the sentinel n itself, so t∘s is t read along s.
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
    # the isos as the arrows of a one-object inverse monoid, composed as codes into iso numbers
    pos, n = poset._pos, len(poset.elements)

    def code(pairs: Iterable[tuple[str, str]]) -> tuple[int, ...]:
        image = {pos[a]: pos[b] for a, b in pairs}
        return tuple(image.get(i, n) for i in range(n + 1))

    codes = [code(s.pairs) for _, s, _, _ in isos]
    number = {c: i for i, c in enumerate(codes)}
    unit = identity_iso(poset.elements).label()
    rows = [[number[tuple(map(t.__getitem__, s))] for t in codes] for s in codes]
    cat = FiniteCategory.from_rows(("*",), {label: ("*", "*") for label, *_ in isos}, {"*": unit}, rows)
    monoid = InverseCategory(cat, {label: isos[number[code((b, a) for a, b in s.pairs)]][0] for label, s, _, _ in isos})
    return join_category(object_names, arrows, identities, monoid, lambda u, s, v: f"{u}->{v}|{s}")
