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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .actions import FibredAction, MomentMap, PartialActionBundle
from .core import InverseCategory, _buckets
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
    """Carrier poset of the Bernoulli action, with element bookkeeping."""

    ic: InverseCategory
    pointed: bool
    elements: dict[str, PCElement]
    poset: Poset
    _by_idem: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._by_idem = _buckets(self.elements, lambda k: self.elements[k].idem)

    def signature(self, key: str) -> tuple[str, str]:
        elt = self.elements[key]
        return (elt.obj, elt.idem)

    def act(self, s: str, key: str) -> str:
        """The key of sA.  Every member of A ends at the object of A, so
        NOT_COMPOSABLE unless s starts there."""
        elt = self.elements[key]
        if self.ic.src(s) != elt.obj:
            raise NotComposable(f"{s!r} does not compose with the members of {key!r}", morphism=s, element=key)
        table = self.ic.cat.table
        return subset_name([table[(s, m)] for m in elt.members])

    def domain(self, s: str, strict: bool = False) -> tuple[str, ...]:
        """D_s, the elements that θ_s maps onto, in element order.

        A lies in D_s when its signature idempotent sits below ss° (strict:
        equals it) and, on the pointed carrier, A contains iε(A)·s.
        ``build_bernoulli`` lists the elements of one signature together, so
        the buckets concatenate in element order.
        """
        ic = self.ic
        ran = ic.ran_idem(s)
        idems = (ran,) if strict else ic.idempotents_below(ran)
        out: list[str] = []
        for e in idems:
            bucket = self._by_idem.get(e, ())
            if self.pointed:
                marker = ic.compose(e, s)
                out.extend(k for k in bucket if marker in self.elements[k].members)
            else:
                out.extend(bucket)
        return tuple(out)


def build_bernoulli(
    ic: InverseCategory,
    pointed: bool = False,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> BernoulliPoset:
    """Enumerate the (pointed) Bernoulli poset, capped before expansion."""
    classes = {e: ic.r_class(e) for e in ic.idempotents()}
    total = sum(
        2 ** (len(r) - 1) if pointed else 2 ** len(r) - 1 for r in classes.values()
    )
    check_cap("Bernoulli poset", total, max_elements)
    # a subset of R_e is also a bitmask over the sorted members of R_e
    bit = {e: {m: 1 << i for i, m in enumerate(sorted(r))} for e, r in classes.items()}
    elements: dict[str, PCElement] = {}
    key_of: dict[tuple[str, int], str] = {}
    for e in sorted(classes):
        members = sorted(classes[e])
        for r in range(1, len(members) + 1):
            for sub in itertools.combinations(members, r):
                if pointed and e not in sub:
                    continue
                elt = PCElement(frozenset(sub), ic.src(e), e)
                elements[elt.key] = elt
                key_of[(e, sum(bit[e][m] for m in sub))] = elt.key

    # A ≤ B exactly when e = iε(A) ≤ iε(B) and A ⊇ e·B inside R_e, so the
    # down-set of B in the fiber of e is every (pointed) superset of e·B
    below = {f: ic.idempotents_below(f) for f in classes}
    relation = []
    for bkey, b in elements.items():
        for e in below[b.idem]:
            least = bit[e][e] if pointed else 0
            for m in b.members:
                least |= bit[e][ic.compose(e, m)]
            free = ((1 << len(bit[e])) - 1) & ~least
            extra = free
            while True:
                relation.append((key_of[(e, least | extra)], bkey))
                if not extra:
                    break
                extra = (extra - 1) & free
    poset = Poset(tuple(elements), frozenset(relation))
    return BernoulliPoset(ic, pointed, elements, poset)


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
    theta = {
        (s, k): bp.act(s, k) for s in ic.morphisms for k in bp.domain(ic.inv(s), strict)
    }
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
    """The maps θ_s(A) = sA of the action on either carrier, each from
    ``BernoulliPoset.domain`` of s° onto that of s."""
    ic = bp.ic
    maps = {
        s: PartialOrderIso(tuple(sorted((k, bp.act(s, k)) for k in bp.domain(ic.inv(s), strict))))
        for s in ic.morphisms
    }
    return PartialActionBundle(ic, bp.poset, maps, strict=strict)
