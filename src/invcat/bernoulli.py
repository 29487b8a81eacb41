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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .actions import FibredAction, MomentMap, PartialActionBundle
from .core import InverseCategory
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

    def signature(self, key: str) -> tuple[str, str]:
        elt = self.elements[key]
        return (elt.obj, elt.idem)

    def act(self, s: str, key: str) -> str:
        """The key of sA; every member must be composable with s."""
        out = []
        for m in self.elements[key].members:
            sm = self.ic.compose(s, m)
            assert sm is not None, (s, m, "not composable")
            out.append(sm)
        return subset_name(out)


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
    below = {f: [e for e in classes if ic.leq_idem(e, f)] for f in classes}
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
    """θ_s(A) = sA on the full Bernoulli poset, as a fibred action."""
    return _global_action(build_bernoulli(ic, pointed=False, max_elements=max_elements), strict)


def bernoulli_partial(
    ic: InverseCategory,
    strict: bool = False,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> PartialActionBundle:
    """The partial bundle on the pointed Bernoulli poset.

    D_s collects the pointed subsets B whose signature sits below (strict:
    equals) ss° and which contain iε(B)·s; θ_s sends A to sA.
    """
    return _partial_bundle(build_bernoulli(ic, pointed=True, max_elements=max_elements), strict)


def _global_action(bp: BernoulliPoset, strict: bool) -> FibredAction:
    ic = bp.ic
    moment = MomentMap(
        {k: elt.obj for k, elt in bp.elements.items()},
        {k: elt.idem for k, elt in bp.elements.items()},
    )
    action = FibredAction(ic, bp.poset, moment, {}, strict=strict)
    action.theta = {
        (s, k): bp.act(s, k)
        for s in ic.morphisms
        for k in bp.poset.elements
        if action.admissible(s, k)
    }
    return action


def _partial_bundle(bp: BernoulliPoset, strict: bool) -> PartialActionBundle:
    ic = bp.ic

    def domain(s: str) -> frozenset[str]:
        ran = ic.ran_idem(s)
        out = []
        for k, elt in bp.elements.items():
            if elt.obj != ic.tgt(s):
                continue
            if strict:
                if elt.idem != ran:
                    continue
            elif not ic.leq_idem(elt.idem, ran):
                continue
            marker = ic.compose(elt.idem, s)
            assert marker is not None
            if marker in elt.members:
                out.append(k)
        return frozenset(out)

    domains = {s: domain(s) for s in ic.morphisms}
    maps = {
        s: PartialOrderIso(
            tuple(sorted((k, bp.act(s, k)) for k in domains[ic.inv(s)]))
        )
        for s in ic.morphisms
    }
    return PartialActionBundle(ic, bp.poset, domains, maps, strict=strict)
