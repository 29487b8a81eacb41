"""Cauchy completion, restriction groupoid, enlargements, equivalences.

The completion splits every idempotent: objects are pairs (X, e) with e an
idempotent at X, morphisms are triples (e, s, f) with se = s = fs, composed
by multiplying the middle components.  The original category embeds fully
via X ↦ (X, 1_X).

The restriction groupoid keeps the same objects but only the invertible
triples (s°s, s, ss°) — exactly one per morphism of the original category.

``enlargement_check`` tests the three axioms making C a "spread-out" copy of
itself inside D; an enlargement induces an equivalence of the two
completions, which ``equivalence_check`` verifies by finite search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Functor,
    InverseCategory,
    isomorphic_objects,
    join_category,
    validate_functor,
)
from .errors import NotAFunctor, NotASubcategory
from .limits import DEFAULT_MAX_ELEMENTS, check_cap

__all__ = [
    "CauchyCompletion",
    "cauchy_completion",
    "completion_size",
    "restriction_groupoid",
    "EnlargementReport",
    "enlargement_check",
    "EquivalenceReport",
    "equivalence_check",
    "completion_inclusion",
]


def _object_name(x: str, e: str) -> str:
    return f"({x}|{e})"


def _morphism_name(e: str, s: str, f: str) -> str:
    return f"({e}|{s}|{f})"


@dataclass
class CauchyCompletion:
    """The completed category plus the full embedding of the original."""

    ic: InverseCategory
    embedding: Functor
    objects_data: dict[str, tuple[str, str]]  # name -> (X, e)
    morphisms_data: dict[str, tuple[str, str, str]]  # name -> (e, s, f)


def completion_size(ic: InverseCategory) -> int:
    """Morphisms of the Cauchy completion: s·e = s and f·s = s say that
    e ≥ s°s and f ≥ ss°, so s contributes |↑s°s|·|↑ss°| triples: exactly
    the ``idempotents_above`` pairs that ``cauchy_completion`` enumerates."""
    above = {d: len(ic.idempotents_above(d)) for d in ic.idempotents()}
    return sum(above[ic.dom_idem(s)] * above[ic.ran_idem(s)] for s in ic.morphisms)


def cauchy_completion(
    ic: InverseCategory, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> CauchyCompletion:
    """Split the idempotents of an inverse category.

    Objects: pairs (X, e), e idempotent at X.  Morphisms: triples (e, s, f)
    with s·e = s and f·s = s, that is e ≥ s°s and f ≥ ss°, from (src s, e)
    to (tgt s, f); composition is (f, t, g)(e, s, f) = (e, ts, g) and the
    identity of (X, e) is (e, e, e).  Raises SIZE_CAP_EXCEEDED before any
    work when ``completion_size`` is above ``max_elements``.
    """
    check_cap("Cauchy completion", completion_size(ic), max_elements)
    cat = ic.cat
    above = {d: ic.idempotents_above(d) for d in ic.idempotents()}
    triples = {
        _morphism_name(e, s, f): (e, s, f)
        for s in cat.morphisms
        for e in above[ic.dom_idem(s)]
        for f in above[ic.ran_idem(s)]
    }
    completed, objects = _split(ic, triples)
    ident = cat.identity
    embedding = Functor(
        cat,
        completed.cat,
        {x: objects[ident[x]] for x in cat.objects},
        {
            s: name
            for name, (e, s, f) in triples.items()
            if e == ident[cat.src[s]] and f == ident[cat.tgt[s]]
        },
    )
    return CauchyCompletion(
        completed,
        embedding,
        {name: (ic.src(e), e) for e, name in objects.items()},
        triples,
    )


def restriction_groupoid(ic: InverseCategory) -> InverseCategory:
    """The invertible part of the completion, built directly.

    Same objects (X, e); one arrow (s°s, s, ss°) per morphism s of the
    original category, so the morphism counts agree.
    """
    triples = {}
    for s in ic.morphisms:
        d, r = ic.dom_idem(s), ic.ran_idem(s)
        triples[_morphism_name(d, s, r)] = (d, s, r)
    return _split(ic, triples)[0]


def _split(
    ic: InverseCategory, triples: dict[str, tuple[str, str, str]]
) -> tuple[InverseCategory, dict[str, str]]:
    """Join the triples (e, s, f), keyed by name, as the arrows
    ((src s, e), s, (tgt s, f)) of ``join_category`` over ``ic``, so
    (f, t, g)(e, s, f) = (e, ts, g); the identity of (X, e) is (e, e, e).
    Returns the category and its object names by idempotent."""
    objects = {e: _object_name(ic.src(e), e) for e in ic.idempotents()}
    idem = {name: e for e, name in objects.items()}
    units = {e: name for name, (e, s, f) in triples.items() if e == s == f}
    completed = join_category(
        objects.values(),
        {name: (objects[e], s, objects[f]) for name, (e, s, f) in triples.items()},
        {name: units[e] for e, name in objects.items()},
        ic,
        lambda a, s, b: _morphism_name(idem[a], s, idem[b]),
    )
    return completed, objects


# ---------------------------------------------------------------------------
# enlargements


@dataclass
class EnlargementReport:
    """Outcome of the three enlargement axioms, with failure witnesses."""

    axiom1: bool
    axiom2: bool
    axiom3: bool
    witnesses: dict[str, tuple]

    @property
    def overall(self) -> bool:
        return self.axiom1 and self.axiom2 and self.axiom3


def _check_embedding(sub: InverseCategory, sup: InverseCategory, emb: Functor) -> None:
    if emb.source != sub.cat or emb.target != sup.cat:
        raise NotASubcategory(
            "embedding does not connect the two given categories"
        )
    report = validate_functor(emb)
    if not report.ok:
        raise NotASubcategory(
            f"embedding is not a functor: {report.violations[0]}",
            rules=report.rules(),
        )
    if len(set(emb.objects.values())) != len(emb.objects) or len(
        set(emb.morphisms.values())
    ) != len(emb.morphisms):
        raise NotASubcategory("embedding is not injective")


def enlargement_check(
    sub: InverseCategory, sup: InverseCategory, emb: Functor
) -> EnlargementReport:
    """Check the three axioms for ``sub`` (via ``emb``) being enlarged by ``sup``.

    (I)   at every object of the subcategory, its idempotents form an order
          ideal of the ambient idempotents there;
    (II)  every ambient morphism s between embedded objects that is fixed
          by embedded idempotents on both sides, that is some embedded
          idempotent lies above s°s and some above ss°, already lies in
          the image;
    (III) every ambient idempotent f is reached by some s with s°s embedded
          and ss° = f.

    Raises NOT_A_SUBCATEGORY unless the embedding is an injective functor.
    """
    _check_embedding(sub, sup, emb)
    witnesses: dict[str, tuple] = {}
    obj_image = {emb.objects[x] for x in sub.objects}
    mor_image = set(emb.morphisms.values())
    # injective on objects: the embedded idempotents at ι(x) come from x
    embedded_idems = {emb.morphisms[e] for e in sub.idempotents()}

    axiom1 = True
    for x in sub.objects:
        for f in sup.idempotents_at(emb.objects[x]):
            if f not in embedded_idems and not embedded_idems.isdisjoint(sup.idempotents_above(f)):
                axiom1 = False
                witnesses.setdefault("axiom1", (x, f))

    axiom2 = True
    for s in sup.morphisms:
        if sup.src(s) not in obj_image or sup.tgt(s) not in obj_image:
            continue
        fixes_src = not embedded_idems.isdisjoint(sup.idempotents_above(sup.dom_idem(s)))
        fixes_tgt = not embedded_idems.isdisjoint(sup.idempotents_above(sup.ran_idem(s)))
        if fixes_src and fixes_tgt and s not in mor_image:
            axiom2 = False
            witnesses.setdefault("axiom2", (s,))

    reached = {sup.ran_idem(s) for s in sup.morphisms if sup.dom_idem(s) in embedded_idems}
    unreached = next((f for f in sup.idempotents() if f not in reached), None)
    axiom3 = unreached is None
    if not axiom3:
        witnesses["axiom3"] = (sup.src(unreached), unreached)

    return EnlargementReport(axiom1, axiom2, axiom3, witnesses)


# ---------------------------------------------------------------------------
# equivalence of categories


@dataclass
class EquivalenceReport:
    faithful: bool
    full: bool
    essentially_surjective: bool
    witnesses: dict[str, tuple]

    @property
    def overall(self) -> bool:
        return self.faithful and self.full and self.essentially_surjective


def equivalence_check(functor: Functor) -> EquivalenceReport:
    """Decide by finite search whether a functor is an equivalence.

    Checks injectivity and surjectivity on every hom-set, and that each
    target object is isomorphic to the image of some source object.
    Raises NOT_A_FUNCTOR when the functor laws fail.
    """
    report = validate_functor(functor)
    if not report.ok:
        raise NotAFunctor(
            f"not a functor: {report.violations[0]}", rules=report.rules()
        )
    src, dst = functor.source, functor.target
    witnesses: dict[str, tuple] = {}

    faithful = True
    full = True
    for x in src.objects:
        for y in src.objects:
            hom = src.hom(x, y)
            images = [functor.morphisms[m] for m in hom]
            if len(set(images)) != len(images):
                faithful = False
                witnesses.setdefault("faithful", (x, y))
            target_hom = set(dst.hom(functor.objects[x], functor.objects[y]))
            missing = target_hom - set(images)
            if missing:
                full = False
                witnesses.setdefault("full", (x, y, min(missing)))

    iso = isomorphic_objects(dst)
    hit = {functor.objects[x] for x in src.objects}
    essentially_surjective = True
    for z in dst.objects:
        if not (iso[z] & hit):
            essentially_surjective = False
            witnesses.setdefault("essentially_surjective", (z,))
    return EquivalenceReport(faithful, full, essentially_surjective, witnesses)


def completion_inclusion(
    sub: InverseCategory, sup: InverseCategory, emb: Functor
) -> tuple[CauchyCompletion, CauchyCompletion, Functor]:
    """Complete both categories and lift the embedding between completions:
    (X, e) ↦ (ι(X), ι(e)) and (e, s, f) ↦ (ι(e), ι(s), ι(f))."""
    _check_embedding(sub, sup, emb)
    chat = cauchy_completion(sub)
    dhat = cauchy_completion(sup)
    obj_map = {
        name: _object_name(emb.objects[x], emb.morphisms[e])
        for name, (x, e) in chat.objects_data.items()
    }
    mor_map = {
        name: _morphism_name(emb.morphisms[e], emb.morphisms[s], emb.morphisms[f])
        for name, (e, s, f) in chat.morphisms_data.items()
    }
    return chat, dhat, Functor(chat.ic.cat, dhat.ic.cat, obj_map, mor_map)
