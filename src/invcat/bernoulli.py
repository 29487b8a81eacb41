"""The Bernoulli poset of an inverse category and its actions.

Elements are the nonempty subsets A of the R-classes: every member of A has
the same inner target e, which together with its object X forms the signature
(X, e) of A.  The order puts larger subsets *lower*: A ≤ B holds when the
signatures compare (same object, e ≤ f) and eB ⊆ A.

The "pointed" sub-poset keeps only the subsets containing their own
idempotent; it is downward closed in the full poset.

Two actions live here: the global one on the full poset (θ_s(A) = sA,
defined whenever the signature of A sits below s°s) and the partial bundle
on the pointed poset.  Strict variants tighten "sits below" to "equals".
Both read their domains D_s from ``BernoulliPoset.domain``.  The semidirect
product takes bundles only: the global action reaches it through
``fibred_to_symmetry`` and ``symmetry_to_partial``, and ``szendrei`` builds
the bundle of either carrier directly.

Each element is also coded as (e, mask): bit i of the mask stands for the
i-th member of R_e in name order.  For a morphism c starting at the object
of e, every member m of R_e gives c·m in R_f with f = c·e·c°, so the image
of a subset is the OR of the images of its bits.
``BernoulliPoset.images(c, e)`` tabulates that image for every mask over
R_e on first use, by a bit recurrence: a mask's image is the image of the
mask without its highest bit, ORed with the image of that bit.  The action sA,
the pointed test of D_s, the θ_s of both actions and the pseudo product of
``expansion`` are then table lookups and one OR; member sets are read only
for output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .actions import FibredAction, MomentMap, PartialActionBundle
from .core import InverseCategory
from .errors import NotComposable
from .limits import DEFAULT_MAX_ELEMENTS, check_cap
from .poset import PartialOrderIso, Poset, subset_name


@dataclass(frozen=True)
class PCElement:
    """A nonempty subset of one R-class, with its signature (object, idempotent)."""

    members: frozenset[str]
    obj: str
    idem: str

    @property
    def key(self) -> str:
        return subset_name(self.members)


@dataclass
class BernoulliPoset:
    """Carrier poset of the Bernoulli action, with element bookkeeping.

    ``members`` lists R_e in name order for each idempotent e, and
    ``codes`` gives each element key its (e, mask) code over that list.
    The order is built from the codes: A ≤ B exactly when e = iε(A) ≤
    iε(B) and A ⊇ e·B inside R_e, so the down-set of B in the fiber of e
    is every (pointed) superset of the mask of e·B, read off ``images``."""

    ic: InverseCategory
    pointed: bool
    elements: dict[str, PCElement]
    members: dict[str, tuple[str, ...]]
    codes: dict[str, tuple[str, int]]
    poset: Poset = field(init=False)
    _by_idem: dict[str, tuple[tuple[str, int], ...]] = field(init=False, repr=False, compare=False)
    _keys: dict[str, list[str | None]] = field(init=False, repr=False, compare=False)
    _bit: dict[str, dict[str, int]] = field(init=False, repr=False, compare=False)
    _images: dict[tuple[str, str], tuple[str, list[int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._bit = {e: {m: 1 << i for i, m in enumerate(r)} for e, r in self.members.items()}
        self._keys = {e: [None] * (1 << len(r)) for e, r in self.members.items()}
        by_idem: dict[str, list[tuple[str, int]]] = {}
        for key, (e, mask) in self.codes.items():
            self._keys[e][mask] = key
            by_idem.setdefault(e, []).append((key, mask))
        self._by_idem = {e: tuple(bucket) for e, bucket in by_idem.items()}
        relation = []
        for f, bucket in self._by_idem.items():
            for e in self.ic.idempotents_below(f):
                keys, image = self._keys[e], self.images(e, f)[1]
                point = self._bit[e][e] if self.pointed else 0
                for bkey, mask in bucket:
                    least = image[mask] | point
                    free = (len(keys) - 1) & ~least
                    extra = free
                    while True:
                        relation.append((keys[least | extra], bkey))
                        if not extra:
                            break
                        extra = (extra - 1) & free
        self.poset = Poset(tuple(self.elements), frozenset(relation))

    def signature(self, key: str) -> tuple[str, str]:
        elt = self.elements[key]
        return (elt.obj, elt.idem)

    def images(self, c: str, e: str) -> tuple[str, list[int]]:
        """(f, image) with f = c·e·c° and image[mask] the mask of c·A over
        R_f, for A the subset of R_e with that mask; built on first use.
        ``c`` must start at the object of e."""
        got = self._images.get((c, e))
        if got is None:
            table = self.ic.cat.table
            f = table[(table[(c, e)], self.ic.inverse[c])]
            bit = self._bit[f]
            image = [0]
            for m in self.members[e]:  # masks with this bit follow those without it
                b = bit[table[(c, m)]]
                image += [low | b for low in image]
            got = self._images[(c, e)] = (f, image)
        return got

    def subset(self, f: str, mask: int) -> str:
        """The name of the subset of R_f with that mask: its element key,
        or its formatted name when it is not an element."""
        return self._keys[f][mask] or subset_name(m for m, b in self._bit[f].items() if mask & b)

    def act(self, s: str, key: str) -> str:
        """The key of sA.  Every member of A ends at the object of A, so
        NOT_COMPOSABLE unless s starts there."""
        elt = self.elements[key]
        if self.ic.src(s) != elt.obj:
            raise NotComposable(f"{s!r} does not compose with the members of {key!r}", morphism=s, element=key)
        e, mask = self.codes[key]
        f, image = self.images(s, e)
        return self.subset(f, image[mask])

    def _domain(self, s: str, strict: bool) -> list[tuple[str, tuple[tuple[str, int], ...]]]:
        """D_s by signature idempotent e: (e, the (key, mask) codes of D_s
        at e), in element order."""
        ic = self.ic
        ran = ic.ran_idem(s)
        idems = (ran,) if strict else ic.idempotents_below(ran)
        out = []
        for e in idems:
            bucket = self._by_idem.get(e, ())
            if self.pointed:
                marker = self._bit[e][ic.cat.table[(e, s)]]
                bucket = tuple(km for km in bucket if km[1] & marker)
            out.append((e, bucket))
        return out

    def domain(self, s: str, strict: bool = False) -> tuple[str, ...]:
        """D_s, the elements that θ_s maps onto, in element order.

        A lies in D_s when its signature idempotent sits below ss° (strict:
        equals it) and, on the pointed carrier, A contains iε(A)·s, a member
        of R_{iε(A)} tested as one bit.  ``build_bernoulli`` lists the
        elements of one signature together, so the buckets concatenate in
        element order.
        """
        return tuple(k for _, bucket in self._domain(s, strict) for k, _ in bucket)

    def graph(self, s: str, strict: bool = False) -> list[tuple[str, str]]:
        """θ_s as its pairs (A, sA) for A in D_{s°}, in element order: one
        ``images`` table per signature idempotent of D_{s°}."""
        out: list[tuple[str, str]] = []
        for e, bucket in self._domain(self.ic.inv(s), strict):
            f, image = self.images(s, e)
            keys = self._keys[f]
            out += [(k, keys[image[mask]]) for k, mask in bucket]
        return out


def build_bernoulli(
    ic: InverseCategory,
    pointed: bool = False,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> BernoulliPoset:
    """Enumerate the (pointed) Bernoulli poset, capped before expansion."""
    members = {e: tuple(sorted(ic.r_class(e))) for e in ic.idempotents()}
    total = sum(
        2 ** (len(r) - 1) if pointed else 2 ** len(r) - 1 for r in members.values()
    )
    check_cap("Bernoulli poset", total, max_elements)
    # a subset of R_e is also a bitmask over the sorted members of R_e
    elements: dict[str, PCElement] = {}
    codes: dict[str, tuple[str, int]] = {}
    for e in sorted(members):
        bit = {m: 1 << i for i, m in enumerate(members[e])}
        for r in range(1, len(members[e]) + 1):
            for sub in itertools.combinations(members[e], r):
                if pointed and e not in sub:
                    continue
                elt = PCElement(frozenset(sub), ic.src(e), e)
                elements[elt.key] = elt
                codes[elt.key] = (e, sum(map(bit.__getitem__, sub)))
    return BernoulliPoset(ic, pointed, elements, members, codes)


def bernoulli_global(
    ic: InverseCategory,
    strict: bool = False,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> FibredAction:
    """θ_s(A) = sA on the full Bernoulli poset, as a fibred action: θ_s is
    defined on D_{s°}."""
    bp = build_bernoulli(ic, pointed=False, max_elements=max_elements)
    moment = MomentMap(
        {k: elt.obj for k, elt in bp.elements.items()},
        {k: elt.idem for k, elt in bp.elements.items()},
    )
    theta = {(s, k): y for s in ic.morphisms for k, y in bp.graph(s, strict)}
    return FibredAction(ic, bp.poset, moment, theta, strict=strict)


def bernoulli_partial(
    ic: InverseCategory,
    strict: bool = False,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> PartialActionBundle:
    """The partial bundle on the pointed Bernoulli poset: θ_s : D_{s°} -> D_s
    sends A to sA, with D_s from ``BernoulliPoset.domain``."""
    return _bundle(build_bernoulli(ic, pointed=True, max_elements=max_elements), strict)


def _bundle(bp: BernoulliPoset, strict: bool) -> PartialActionBundle:
    """The maps θ_s(A) = sA of the action on either carrier, each read off
    ``BernoulliPoset.graph``: from ``BernoulliPoset.domain`` of s° onto
    that of s."""
    ic = bp.ic
    maps = {s: PartialOrderIso(tuple(sorted(bp.graph(s, strict)))) for s in ic.morphisms}
    return PartialActionBundle(ic, bp.poset, maps, strict=strict)
