"""Finite categories with explicit composition tables, and inverse structure.

Conventions used throughout the package:

* ``compose(g, f)`` means "g after f" and is defined exactly when
  ``tgt(f) == src(g)``.  Juxtaposition in docstrings follows the same order:
  ``st`` applies ``t`` first.
* A composite that does not exist is represented by the absence of the pair
  from the table; lookups return ``None`` (the convolution algebra later
  interprets that as the zero product).
* All identities must be declared explicitly.
* Declaration order of objects and morphisms is the canonical order;
  derived collections are emitted sorted by name.
* A category is immutable once built and indexes its morphisms by source
  and by target once, in declaration order; hom-sets, stars, costars and
  the inverse search read these buckets.  Every derived category is built
  by ``join_category``, which composes each arrow only with the arrows
  starting where it ends, so its cost follows the composable pairs.
  Products name a composite by looking it up among the declared arrows,
  so the table shares the declared strings; ``FiniteCategory.build``
  checks all of the table's names at once, as one set, and scans entry by
  entry only to report the first undeclared one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .errors import NotInverseCategory, NotParallel, UndeclaredName


# ---------------------------------------------------------------------------
# validation reports


@dataclass(frozen=True)
class Violation:
    """One broken rule together with a minimal witness tuple."""

    rule: str
    witness: tuple
    detail: str

    def __str__(self) -> str:
        return f"{self.rule}{self.witness!r}: {self.detail}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, rule: str, witness: tuple, detail: str) -> None:
        self.violations.append(Violation(rule, witness, detail))

    def add_first(self, rule: str, witness: tuple, detail: str) -> None:
        """Record the violation only if ``rule`` has no witness yet."""
        if all(v.rule != rule for v in self.violations):
            self.add(rule, witness, detail)

    def rules(self) -> tuple[str, ...]:
        return tuple(sorted({v.rule for v in self.violations}))

    def summary(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(str(v) for v in self.violations)


# ---------------------------------------------------------------------------
# finite categories


@dataclass
class FiniteCategory:
    """A finite category presented by explicit tables.

    ``src``/``tgt`` type every morphism, ``identity`` names the identity of
    each object, and ``table`` holds every defined composite keyed by
    ``(after, first)``.
    """

    objects: tuple[str, ...]
    morphisms: tuple[str, ...]
    src: dict[str, str]
    tgt: dict[str, str]
    identity: dict[str, str]
    table: dict[tuple[str, str], str]
    _by_src: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _by_tgt: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._by_src = _buckets(self.morphisms, self.src.__getitem__)
        self._by_tgt = _buckets(self.morphisms, self.tgt.__getitem__)

    @staticmethod
    def build(
        objects: Iterable[str],
        morphisms: Mapping[str, tuple[str, str]],
        identities: Mapping[str, str],
        composition: Mapping[tuple[str, str], str],
    ) -> "FiniteCategory":
        """Assemble a category, rejecting any reference to an undeclared name.

        Sources and targets are stored as the declared object names.  The
        table is stored as given, so a product that returns the declared
        names shares them.  Its names are checked in bulk, as one set
        against the declared morphisms; only when that fails does the
        ordered scan run, so UNDECLARED_NAME names the first offending name
        in table order."""
        objs = tuple(objects)
        mors = tuple(morphisms)
        oset, mset = {x: x for x in objs}, set(mors)
        if len(oset) != len(objs):
            raise UndeclaredName("duplicate object declaration", objects=objs)
        if len(mset) != len(mors):
            raise UndeclaredName("duplicate morphism declaration", morphisms=mors)
        src, tgt = {}, {}
        for name, (a, b) in morphisms.items():
            if a not in oset:
                raise UndeclaredName(f"morphism {name!r} has undeclared source {a!r}", name=a)
            if b not in oset:
                raise UndeclaredName(f"morphism {name!r} has undeclared target {b!r}", name=b)
            src[name], tgt[name] = oset[a], oset[b]
        ident = {}
        for obj, m in identities.items():
            if obj not in oset:
                raise UndeclaredName(f"identity declared for undeclared object {obj!r}", name=obj)
            if m not in mset:
                raise UndeclaredName(f"identity of {obj!r} is undeclared morphism {m!r}", name=m)
            ident[obj] = m
        used = set(itertools.chain.from_iterable(composition))
        used.update(composition.values())
        if not used <= mset:
            for pair, h in composition.items():
                for name in (*pair, h):
                    if name not in mset:
                        raise UndeclaredName(f"composition entry uses undeclared morphism {name!r}", name=name)
        return FiniteCategory(objs, mors, src, tgt, ident, dict(composition))

    # -- basic queries ------------------------------------------------

    def compose(self, g: str, f: str) -> str | None:
        """g∘f ("g after f"), or None when the pair is not composable."""
        return self.table.get((g, f))

    def composable(self, g: str, f: str) -> bool:
        return self.tgt[f] == self.src[g]

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return tuple(m for m in self._by_src.get(x, ()) if self.tgt[m] == y)

    def endo(self, x: str) -> tuple[str, ...]:
        return self.hom(x, x)

    def is_identity(self, m: str) -> bool:
        return self.identity.get(self.src[m]) == m

    def parallel(self, s: str, t: str) -> bool:
        return self.src[s] == self.src[t] and self.tgt[s] == self.tgt[t]


def _buckets(items: Iterable, key) -> dict:
    """Group ``items`` by ``key``, keeping their order inside each bucket."""
    out: dict = {}
    for item in items:
        out.setdefault(key(item), []).append(item)
    return {k: tuple(v) for k, v in out.items()}


def validate_category(cat: FiniteCategory) -> ValidationReport:
    """Check the category axioms; every violation is reported with a witness.

    Rules: identity typing and neutrality, composability exactness (the table
    holds *exactly* the composable pairs), typing of composites, and full
    associativity over composable triples.
    """
    report = ValidationReport()
    for obj in cat.objects:
        m = cat.identity.get(obj)
        if m is None:
            report.add("identity-missing", (obj,), "object has no declared identity")
            continue
        if cat.src[m] != obj or cat.tgt[m] != obj:
            report.add("identity-typing", (obj, m), "identity is not an endomorphism of its object")
    # exactness: the table walk finds spurious and mistyped composites, the
    # source buckets find missing ones; both are reported by (f, g) in
    # declaration order
    pos = {m: i for i, m in enumerate(cat.morphisms)}
    found = []
    for (g, f), h in cat.table.items():
        if f not in pos or g not in pos:
            continue
        if not cat.composable(g, f):
            found.append((pos[f], pos[g], "spurious-composite", (g, f), "non-composable pair has a table entry"))
        elif cat.src[h] != cat.src[f] or cat.tgt[h] != cat.tgt[g]:
            found.append((pos[f], pos[g], "composite-typing", (g, f, h), "composite has wrong source or target"))
    for f in cat.morphisms:
        for g in cat._by_src.get(cat.tgt[f], ()):
            if (g, f) not in cat.table:
                found.append((pos[f], pos[g], "missing-composite", (g, f), "composable pair has no table entry"))
    for *_, rule, witness, detail in sorted(found):
        report.add(rule, witness, detail)
    for f in cat.morphisms:
        left = cat.identity.get(cat.tgt[f])
        right = cat.identity.get(cat.src[f])
        if left is not None and cat.table.get((left, f)) != f:
            report.add("identity-neutral-left", (left, f), "1∘f differs from f")
        if right is not None and cat.table.get((f, right)) != f:
            report.add("identity-neutral-right", (f, right), "f∘1 differs from f")
    # associativity over composable triples, walking src buckets; triples
    # touching a missing composite are already reported above
    for f in cat.morphisms:
        for g in cat._by_src.get(cat.tgt[f], ()):
            gf = cat.table.get((g, f))
            if gf is None:
                continue
            for h in cat._by_src.get(cat.tgt[g], ()):
                hg = cat.table.get((h, g))
                if hg is None:
                    continue
                lhs = cat.table.get((h, gf))
                rhs = cat.table.get((hg, f))
                if lhs != rhs or lhs is None:
                    report.add("associativity", (h, g, f), f"h(gf)={lhs!r} but (hg)f={rhs!r}")
    return report


# ---------------------------------------------------------------------------
# inverse structure


@dataclass
class InverseCategory:
    """A finite category together with its (unique) generalized-inverse map."""

    cat: FiniteCategory
    inverse: dict[str, str]
    _idem: tuple[str, ...] | None = field(default=None, repr=False, compare=False)

    # delegation ------------------------------------------------------

    @property
    def objects(self) -> tuple[str, ...]:
        return self.cat.objects

    @property
    def morphisms(self) -> tuple[str, ...]:
        return self.cat.morphisms

    def src(self, m: str) -> str:
        return self.cat.src[m]

    def tgt(self, m: str) -> str:
        return self.cat.tgt[m]

    def compose(self, g: str, f: str) -> str | None:
        return self.cat.table.get((g, f))

    def identity_of(self, x: str) -> str:
        return self.cat.identity[x]

    def inv(self, m: str) -> str:
        return self.inverse[m]

    # derived idempotents ----------------------------------------------

    def dom_idem(self, s: str) -> str:
        """Inner source id(s) = s°s (an idempotent at the source object)."""
        out = self.compose(self.inverse[s], s)
        assert out is not None
        return out

    def ran_idem(self, s: str) -> str:
        """Inner target ir(s) = ss° (an idempotent at the target object)."""
        out = self.compose(s, self.inverse[s])
        assert out is not None
        return out

    def is_idempotent(self, m: str) -> bool:
        return self.cat.table.get((m, m)) == m

    def idempotents(self) -> tuple[str, ...]:
        if self._idem is None:
            found = tuple(sorted(m for m in self.morphisms if self.is_idempotent(m)))
            object.__setattr__(self, "_idem", found)
        return self._idem

    def idempotents_at(self, x: str) -> tuple[str, ...]:
        return tuple(e for e in self.idempotents() if self.src(e) == x)

    def leq_idem(self, e: str, f: str) -> bool:
        """Natural order on idempotents: e ≤ f iff e = fe (= ef)."""
        if self.src(e) != self.src(f):
            return False
        return self.compose(f, e) == e

    def meet_idem(self, e: str, f: str) -> str:
        """Meet in the semilattice of idempotents at one object: e∧f = ef."""
        out = self.compose(e, f)
        assert out is not None, "idempotents at different objects have no meet"
        return out

    # restriction groupoid ingredients ---------------------------------

    def isotropy(self, e: str) -> tuple[str, ...]:
        """The group C_e = {s : ss° = e = s°s}, sorted by name."""
        return tuple(
            sorted(s for s in self.morphisms if self.dom_idem(s) == e and self.ran_idem(s) == e)
        )

    def star(self, x: str) -> tuple[str, ...]:
        """Morphisms whose outer source is x."""
        return self.cat._by_src.get(x, ())

    def costar(self, y: str) -> tuple[str, ...]:
        """Morphisms whose outer target is y."""
        return self.cat._by_tgt.get(y, ())

    def r_class(self, e: str) -> tuple[str, ...]:
        """All morphisms with inner target e (the R-class of the idempotent e)."""
        return tuple(m for m in self.morphisms if self.ran_idem(m) == e)

    def l_class(self, e: str) -> tuple[str, ...]:
        return tuple(m for m in self.morphisms if self.dom_idem(m) == e)


def generalized_inverses(cat: FiniteCategory, s: str) -> tuple[str, ...]:
    """All t with s = sts and t = tst (candidates run over hom(tgt s, src s))."""
    found = []
    for t in cat.hom(cat.tgt[s], cat.src[s]):
        ts = cat.table.get((t, s))
        st = cat.table.get((s, t))
        if ts is None or st is None:
            continue
        if cat.table.get((s, ts)) == s and cat.table.get((t, st)) == t:
            found.append(t)
    return tuple(found)


def find_inverse_structure(cat: FiniteCategory) -> InverseCategory:
    """Exhaustively locate the unique generalized inverse of every morphism.

    Raises NOT_INVERSE_CATEGORY naming the first morphism (in declaration
    order) whose inverse count differs from one.
    """
    inverse: dict[str, str] = {}
    for s in cat.morphisms:
        candidates = generalized_inverses(cat, s)
        if len(candidates) != 1:
            raise NotInverseCategory(
                f"morphism {s!r} has {len(candidates)} generalized inverses",
                morphism=s,
                count=len(candidates),
                candidates=candidates,
            )
        inverse[s] = candidates[0]
    return InverseCategory(cat, inverse)


def join_category(
    objects: Iterable[str],
    typing: Mapping[str, tuple[str, str]],
    identities: Mapping[str, str],
    product: Callable[[str, str], str],
) -> InverseCategory:
    """Build and verify the inverse category whose arrows are ``typing``
    (name -> (source, target), in declaration order) and whose composite g∘f
    is named by ``product(g, f)``, called only when tgt f = src g.

    ``product`` should return the declared name, looked up rather than
    formatted, so the table shares the declared strings.  ``build`` checks
    the table's names in bulk; a composite that is not an arrow raises
    UNDECLARED_NAME naming the first such composite in table order."""
    by_src = _buckets(typing, lambda m: typing[m][0])
    table = {
        (g, f): product(g, f)
        for f, (_, y) in typing.items()
        for g in by_src.get(y, ())
    }
    return find_inverse_structure(FiniteCategory.build(objects, typing, identities, table))


def natural_leq(ic: InverseCategory, s: str, t: str) -> bool:
    """Natural partial order: s ≤ t iff s = ss°·t.

    In an inverse category this agrees with the other usual
    characterisations (s = te or s = ft for idempotents e, f; s = ts°s),
    so only ss°·t is evaluated.  Raises NOT_PARALLEL unless s and t share
    source and target.
    """
    cat = ic.cat
    if not cat.parallel(s, t):
        raise NotParallel(
            f"{s!r} and {t!r} are not parallel", left=s, right=t
        )
    return cat.table.get((ic.ran_idem(s), t)) == s


def idempotents(cat: FiniteCategory | InverseCategory) -> tuple[str, ...]:
    """All idempotent morphisms, sorted by name."""
    if isinstance(cat, InverseCategory):
        return cat.idempotents()
    return tuple(sorted(m for m in cat.morphisms if cat.table.get((m, m)) == m))

def idempotents_at(cat: FiniteCategory | InverseCategory, x: str) -> tuple[str, ...]:
    if isinstance(cat, InverseCategory):
        return cat.idempotents_at(x)
    return tuple(sorted(m for m in cat._by_src.get(x, ()) if cat.table.get((m, m)) == m))


def inner_outer(ic: InverseCategory, s: str) -> tuple[str, str, str, str]:
    """(outer source, outer target, inner source s°s, inner target ss°)."""
    return (ic.src(s), ic.tgt(s), ic.dom_idem(s), ic.ran_idem(s))


@dataclass
class RelationClasses:
    """L/R-classes (keyed by shared inner idempotent) plus stars and costars."""

    l_classes: tuple[tuple[str, ...], ...]
    r_classes: tuple[tuple[str, ...], ...]
    star: dict[str, tuple[str, ...]]
    costar: dict[str, tuple[str, ...]]


def relation_classes(ic: InverseCategory) -> RelationClasses:
    """Partition morphisms by inner source (L) and inner target (R)."""
    by_dom: dict[str, list[str]] = {}
    by_ran: dict[str, list[str]] = {}
    for m in ic.morphisms:
        by_dom.setdefault(ic.dom_idem(m), []).append(m)
        by_ran.setdefault(ic.ran_idem(m), []).append(m)
    l_classes = tuple(tuple(sorted(v)) for _, v in sorted(by_dom.items()))
    r_classes = tuple(tuple(sorted(v)) for _, v in sorted(by_ran.items()))
    star = {x: tuple(sorted(ic.star(x))) for x in ic.objects}
    costar = {y: tuple(sorted(ic.costar(y))) for y in ic.objects}
    return RelationClasses(l_classes, r_classes, star, costar)


# ---------------------------------------------------------------------------
# functors


@dataclass
class Functor:
    """A functor presented by explicit object and morphism maps."""

    source: FiniteCategory
    target: FiniteCategory
    objects: dict[str, str]
    morphisms: dict[str, str]

    def on_obj(self, x: str) -> str:
        return self.objects[x]

    def on_mor(self, m: str) -> str:
        return self.morphisms[m]


def validate_functor(f: Functor) -> ValidationReport:
    """Check totality, typing, identity and composition preservation."""
    report = ValidationReport()
    src_cat, dst_cat = f.source, f.target
    for x in src_cat.objects:
        if x not in f.objects:
            report.add("functor-object-total", (x,), "object has no image")
        elif f.objects[x] not in set(dst_cat.objects):
            report.add("functor-object-image", (x,), "image object not in target category")
    for m in src_cat.morphisms:
        if m not in f.morphisms:
            report.add("functor-morphism-total", (m,), "morphism has no image")
            continue
        fm = f.morphisms[m]
        if fm not in set(dst_cat.morphisms):
            report.add("functor-morphism-image", (m,), "image morphism not in target category")
            continue
        if dst_cat.src[fm] != f.objects.get(src_cat.src[m]) or dst_cat.tgt[fm] != f.objects.get(src_cat.tgt[m]):
            report.add("functor-typing", (m,), "image morphism has wrong source or target")
    if report.violations:
        return report
    for x in src_cat.objects:
        if f.morphisms[src_cat.identity[x]] != dst_cat.identity[f.objects[x]]:
            report.add("functor-identity", (x,), "identity not mapped to identity")
    for (g, h), gh in src_cat.table.items():
        image = dst_cat.table.get((f.morphisms[g], f.morphisms[h]))
        if image != f.morphisms[gh]:
            report.add("functor-composition", (g, h), f"F(g)F(h)={image!r} differs from F(gh)")
    return report


def compose_functors(g: Functor, f: Functor) -> Functor:
    """g∘f (f first); source/target categories must chain."""
    assert f.target is g.source or f.target == g.source
    return Functor(
        f.source,
        g.target,
        {x: g.objects[y] for x, y in f.objects.items()},
        {m: g.morphisms[n] for m, n in f.morphisms.items()},
    )


def identity_functor(cat: FiniteCategory) -> Functor:
    return Functor(cat, cat, {x: x for x in cat.objects}, {m: m for m in cat.morphisms})


def inclusion_functor(sub: FiniteCategory, sup: FiniteCategory) -> Functor:
    """Name-identical inclusion; every name of ``sub`` must exist in ``sup``.

    Raises UNDECLARED_NAME listing the names of ``sub`` that ``sup`` lacks.
    """
    missing = sorted(
        (set(sub.objects) - set(sup.objects)) | (set(sub.morphisms) - set(sup.morphisms))
    )
    if missing:
        raise UndeclaredName(
            "no --embedding given and names are not a subset of the ambient "
            f"category: {missing}",
            names=missing,
        )
    return Functor(sub, sup, {x: x for x in sub.objects}, {m: m for m in sub.morphisms})


def invertible_morphisms(cat: FiniteCategory) -> dict[str, str]:
    """Map each invertible morphism to its two-sided inverse."""
    out: dict[str, str] = {}
    for s in cat.morphisms:
        for t in cat.hom(cat.tgt[s], cat.src[s]):
            if (
                cat.table.get((t, s)) == cat.identity[cat.src[s]]
                and cat.table.get((s, t)) == cat.identity[cat.tgt[s]]
            ):
                out[s] = t
                break
    return out


def isomorphic_objects(cat: FiniteCategory) -> dict[str, set[str]]:
    """For each object, the set of objects isomorphic to it."""
    inv = invertible_morphisms(cat)
    iso: dict[str, set[str]] = {x: {x} for x in cat.objects}
    for s in inv:
        iso[cat.src[s]].add(cat.tgt[s])
        iso[cat.tgt[s]].add(cat.src[s])
    # transitive closure (object count is tiny)
    changed = True
    while changed:
        changed = False
        for x in cat.objects:
            extra = set(itertools.chain.from_iterable(iso[y] for y in tuple(iso[x])))
            if not extra <= iso[x]:
                iso[x] |= extra
                changed = True
    return iso
