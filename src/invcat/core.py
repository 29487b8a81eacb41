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
* A category is immutable once built and indexes its morphisms by source,
  by target and by (source, target) once, in declaration order; hom-sets,
  stars, costars and the inverse search read these buckets.  Every derived
  category is built by ``join_category`` from triples (source, base
  morphism, target) over the base table read by columns
  (``FiniteCategory.columns``, built on first use), composing each arrow
  only with the arrows starting where it ends, so its cost follows the
  composable pairs.  It looks every composite up among the declared
  arrows, so its table is closed by construction; ``FiniteCategory.build``
  checks all of a table's names at once, as one set, and scans entry by
  entry only to report the first undeclared one.
* Associativity is decided by Light's test on the generating set of
  ``generators``; the action validators check their composition laws on
  the same generators once the acting category passes.
* Inverses are certified, not searched for, wherever a map s ↦ s° is
  known: ``certified_inverse_structure`` accepts it when s·s°·s = s and
  s°·s·s° = s° for every s and the idempotents at each object commute.
  In an associative category these make s° the only generalized inverse
  of s (Lawson, *Inverse Semigroups*, 1998, Thm 1.1.3, whose proof
  multiplies idempotents at one object only).  ``join_category`` names
  each arrow's inverse from the base inverse map, and the CLI hands over
  a spec's declared ``"inverse"``.  When the certificate fails,
  ``find_inverse_structure`` searches every hom(tgt s, src s), so an
  error names the same morphism and candidates as a search alone.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from operator import getitem
from typing import Callable, Iterable, Mapping

from .errors import NotAFunctor, NotComposable, NotIdempotent, NotInverseCategory, NotParallel, UndeclaredName


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
    _by_hom: dict[tuple[str, str], tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _columns: dict[str, dict[str, str]] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        src, tgt = self.src, self.tgt
        self._by_src = _buckets(self.morphisms, src.__getitem__)
        self._by_tgt = _buckets(self.morphisms, tgt.__getitem__)
        self._by_hom = _buckets(self.morphisms, lambda m: (src[m], tgt[m]))

    def columns(self) -> dict[str, dict[str, str]]:
        """The table by its first factor, t -> {s: s∘t}, built on first use."""
        if self._columns is None:
            self._columns = {}
            for (s, t), st in self.table.items():
                self._columns.setdefault(t, {})[s] = st
        return self._columns

    @staticmethod
    def build(
        objects: Iterable[str],
        morphisms: Mapping[str, tuple[str, str]],
        identities: Mapping[str, str],
        composition: Mapping[tuple[str, str], str],
    ) -> "FiniteCategory":
        """Assemble a category, rejecting any reference to an undeclared name.

        Sources and targets are stored as the declared object names.  The
        table is stored as a copy of ``composition`` that shares its
        strings.  Its names are checked in bulk, as one set against the
        declared morphisms; only when that fails does the ordered scan run,
        so UNDECLARED_NAME names the first offending name in table order."""
        return FiniteCategory._assemble(objects, morphisms, identities, dict(composition))

    @staticmethod
    def _assemble(
        objects: Iterable[str],
        morphisms: Mapping[str, tuple[str, str]],
        identities: Mapping[str, str],
        table: dict[tuple[str, str], str],
    ) -> "FiniteCategory":
        """``build`` storing ``table`` itself: the caller hands the dict
        over and keeps no use of it, so the table is never held twice."""
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
        used = set(itertools.chain.from_iterable(table))
        used.update(table.values())
        if not used <= mset:
            for pair, h in table.items():
                for name in (*pair, h):
                    if name not in mset:
                        raise UndeclaredName(f"composition entry uses undeclared morphism {name!r}", name=name)
        return FiniteCategory(objs, mors, src, tgt, ident, table)

    # -- basic queries ------------------------------------------------

    def compose(self, g: str, f: str) -> str | None:
        """g∘f ("g after f"), or None when the pair is not composable."""
        return self.table.get((g, f))

    def composable(self, g: str, f: str) -> bool:
        return self.tgt[f] == self.src[g]

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self._by_hom.get((x, y), ())

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
    holds *exactly* the composable pairs), typing of composites, and
    associativity.  Once the other rules hold, associativity is decided by
    Light's test: (h∘g)∘f = h∘(g∘f) is checked only for the g of
    ``generators(cat)``.  When that test fails, or an earlier rule is
    broken, every composable triple is walked, so the report lists each
    failing (h, g, f) in order.
    """
    report = _table_report(cat)
    if report.ok and _light_test(cat) is not None:
        return report
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


def _table_report(cat: FiniteCategory) -> ValidationReport:
    """The rules of ``validate_category`` other than associativity."""
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
    return report


class _IntTable:
    """The composable pairs of a category in integer form, as Light's test
    and the generator search read them.

    Morphism i is ``cat.morphisms[i]``; ``rows[h][slot[f]]`` is the number
    of h∘f, where f runs over the morphisms ending where h starts, in
    declaration order, and ``slot[f]`` is the place of f among the
    morphisms ending where f ends.  Assumes the table holds the composable
    pairs (the exactness rules of ``validate_category``)."""

    def __init__(self, cat: FiniteCategory) -> None:
        num = {m: i for i, m in enumerate(cat.morphisms)}
        table, by_tgt = cat.table, cat._by_tgt
        self.src = [cat.src[m] for m in cat.morphisms]
        self.tgt = [cat.tgt[m] for m in cat.morphisms]
        self.slot = [0] * len(num)
        for bucket in by_tgt.values():
            for k, f in enumerate(bucket):
                self.slot[num[f]] = k
        self.rows = [
            [num[table[(h, f)]] for f in by_tgt.get(cat.src[h], ())] for h in cat.morphisms
        ]
        self.star = {x: [num[m] for m in bucket] for x, bucket in cat._by_src.items()}
        self.units = [num[m] for m in cat.identity.values()]

    def generators(self) -> list[int]:
        """Greedy: the morphisms that are seldom composites come first,
        being the likeliest to be needed (ties keep declaration order).
        What is reached, starting from the identities, stays closed under
        y ↦ y∘g for the generators g so far, so a morphism not yet reached
        becomes the next generator."""
        rows, slot, src, tgt = self.rows, self.slot, self.src, self.tgt
        produced = Counter(itertools.chain.from_iterable(rows))
        gens: list[int] = []
        into: dict[str, list[int]] = {}  # generators by target
        reached = set(self.units)
        reached_from: dict[str, list[int]] = {}  # reached morphisms by source
        for u in self.units:
            reached_from.setdefault(src[u], []).append(u)
        for x in sorted(range(len(rows)), key=produced.__getitem__):
            if x in reached:
                continue
            gens.append(x)
            into.setdefault(tgt[x], []).append(x)
            k = slot[x]
            frontier = [x, *(rows[y][k] for y in reached_from.get(tgt[x], ()))]
            while frontier:
                y = frontier.pop()
                if y not in reached:
                    reached.add(y)
                    reached_from.setdefault(src[y], []).append(y)
                    row = rows[y]
                    frontier.extend(row[slot[g]] for g in into.get(src[y], ()))
        return gens

    def associative_at(self, gens: Iterable[int]) -> bool:
        """(h∘g)∘f = h∘(g∘f) for each g of ``gens`` and all h, f composable
        with it: row h∘g must equal row h read at the places of the g∘f."""
        rows, slot = self.rows, self.slot
        for g in gens:
            k = slot[g]
            places = [slot[gf] for gf in rows[g]]
            for h in self.star.get(self.tgt[g], ()):
                row = rows[h]
                if rows[row[k]] != [row[j] for j in places]:
                    return False
        return True


def generators(cat: FiniteCategory) -> tuple[str, ...]:
    """A generating set of ``cat``: every morphism is an identity or a
    composite g1∘g2∘…∘gk (k ≥ 1) of generators, listed in the order they
    are chosen.  One walk over the composable pairs counts how often each
    morphism is a composite; see ``_IntTable.generators``.  Assumes the
    table holds the composable pairs (``validate_category``)."""
    return tuple(cat.morphisms[g] for g in _IntTable(cat).generators())


def _light_test(cat: FiniteCategory) -> tuple[str, ...] | None:
    """``generators(cat)`` when Light's test (Clifford & Preston, *The
    Algebraic Theory of Semigroups* I, §1.2) passes on them, else None.

    The test asks (h∘g)∘f = h∘(g∘f) for a generator g and all h, f
    composable with it.  The g passing it are closed under composition (for
    a, b passing, h∘((a∘b)∘f) = ((h∘a)∘b)∘f by four uses of the test), and
    neutral identities pass it, so a generating set that passes makes the
    category associative.  Needs the exactness rules of
    ``validate_category``, and its identity rules when ``cat`` declares
    identities."""
    ints = _IntTable(cat)
    gens = ints.generators()
    if not ints.associative_at(gens):
        return None
    return tuple(cat.morphisms[g] for g in gens)


def associative_generators(cat: FiniteCategory) -> tuple[str, ...] | None:
    """A generating set of ``cat`` on which Light's test passes, once the
    other rules of ``validate_category`` hold; None when anything fails.

    A validator of a functor-like law checks the law on these generators
    only: a law that holds for each generator with all of its composable
    partners, and that survives composition, holds for every morphism."""
    return _light_test(cat) if _table_report(cat).ok else None


# ---------------------------------------------------------------------------
# inverse structure


@dataclass
class InverseCategory:
    """A finite category together with its (unique) generalized-inverse map."""

    cat: FiniteCategory
    inverse: dict[str, str]
    _idem: tuple[str, ...] | None = field(default=None, init=False, repr=False, compare=False)
    _idem_at: dict[str, tuple[str, ...]] | None = field(default=None, init=False, repr=False, compare=False)

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
        return self.cat.table[(self.inverse[s], s)]

    def ran_idem(self, s: str) -> str:
        """Inner target ir(s) = ss° (an idempotent at the target object)."""
        return self.cat.table[(s, self.inverse[s])]

    def is_idempotent(self, m: str) -> bool:
        return self.cat.table.get((m, m)) == m

    def idempotents(self) -> tuple[str, ...]:
        if self._idem is None:
            self._idem = tuple(sorted(m for m in self.morphisms if self.is_idempotent(m)))
        return self._idem

    def idempotents_at(self, x: str) -> tuple[str, ...]:
        """The idempotents at x, sorted by name, bucketed on first use."""
        if self._idem_at is None:
            self._idem_at = _buckets(self.idempotents(), self.cat.src.__getitem__)
        return self._idem_at.get(x, ())

    def leq_idem(self, e: str, f: str) -> bool:
        """Natural order on idempotents: e ≤ f iff e = fe (= ef)."""
        if self.src(e) != self.src(f):
            return False
        return self.compose(f, e) == e

    def idempotents_below(self, f: str) -> tuple[str, ...]:
        """The idempotents e with e = f·e, sorted by name: ↓f in the
        natural order when f is idempotent.  Read from ``idempotents_at``."""
        table = self.cat.table
        return tuple(e for e in self.idempotents_at(self.cat.src[f]) if table[(f, e)] == e)

    def idempotents_above(self, e: str) -> tuple[str, ...]:
        """The idempotents f with e = f·e, sorted by name: ↑e in the
        natural order when e is idempotent.  Read from ``idempotents_at``."""
        table = self.cat.table
        return tuple(f for f in self.idempotents_at(self.cat.tgt[e]) if table[(f, e)] == e)

    def meet_idem(self, e: str, f: str) -> str:
        """Meet in the semilattice of idempotents at one object: e∧f = ef.

        Raises NOT_IDEMPOTENT unless both arguments are idempotents, and
        NOT_COMPOSABLE for idempotents at different objects."""
        for m in (e, f):
            if not self.is_idempotent(m):
                raise NotIdempotent(f"arrow {m!r} is not idempotent", arrow=m)
        out = self.compose(e, f)
        if out is None:
            raise NotComposable("idempotents at different objects have no meet", left=e, right=f)
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
    """All t with s = sts and t = tst; the candidates are the (source,
    target) bucket hom(tgt s, src s)."""
    found = []
    for t in cat._by_hom.get((cat.tgt[s], cat.src[s]), ()):
        ts = cat.table.get((t, s))
        st = cat.table.get((s, t))
        if ts is None or st is None:
            continue
        if cat.table.get((s, ts)) == s and cat.table.get((t, st)) == t:
            found.append(t)
    return tuple(found)


def find_inverse_structure(cat: FiniteCategory) -> InverseCategory:
    """Exhaustively locate the unique generalized inverse of every morphism,
    scanning the hom-set hom(tgt s, src s) of each s.  Raises
    NOT_INVERSE_CATEGORY naming the first morphism (in declaration order)
    whose inverse count differs from one.

    This is the path for a category whose inverse map is not known, and
    the fallback of ``certified_inverse_structure`` when a known map fails
    its certificate.
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


def certified_inverse_structure(cat: FiniteCategory, inverse: Mapping[str, str] | None) -> InverseCategory:
    """The inverse structure of an associative category whose inverse map
    is claimed to be ``inverse``; ``find_inverse_structure`` when there is
    no claim or the claim fails its certificate.

    The certificate asks s·s°·s = s and s°·s·s° = s° of every morphism s,
    and ef = fe of all idempotents e, f at each object.  It makes s° the
    unique generalized inverse of s: if t and t' both are one, then ts,
    t's are idempotents at the source of s and st, st' at its target, so
    t = (ts)(t's)t = (t's)(ts)t = t'st = t'(st')(st) = t'(st)(st') = t'
    (Lawson, *Inverse Semigroups*, 1998, Thm 1.1.3).  The map returned is
    ``inverse`` read in declaration order, as the search would build it."""
    if inverse is not None and _certifies(cat, inverse):
        return InverseCategory(cat, {s: inverse[s] for s in cat.morphisms})
    return find_inverse_structure(cat)


def _certifies(cat: FiniteCategory, inverse: Mapping[str, str]) -> bool:
    """Whether ``inverse`` passes the certificate of
    ``certified_inverse_structure`` on ``cat``: the two regularity laws
    are read a column at a time, with no Python frame per morphism."""
    get, mors = cat.table.get, list(cat.morphisms)
    inv = list(map(inverse.get, mors))
    if list(map(get, zip(mors, map(get, zip(inv, mors))))) != mors:
        return False
    if list(map(get, zip(inv, map(get, zip(mors, inv))))) != inv:
        return False
    idem = [e for e, ee in zip(mors, map(get, zip(mors, mors))) if e == ee]
    for es in _buckets(idem, cat.src.__getitem__).values():
        if any(get((e, f)) != get((f, e)) for e, f in itertools.combinations(es, 2)):
            return False
    return True


def join_category(
    objects: Iterable[str],
    arrows: Mapping[str, tuple[str, str, str]],
    identities: Mapping[str, str],
    columns: Mapping[str, Mapping[str, str]],
    inverse: Mapping[str, str],
    name: Callable[[str, str, str], str],
) -> InverseCategory:
    """Build and verify the inverse category whose arrows are the distinct
    triples ``arrows`` (name -> (source, base morphism, target), in
    declaration order) over a base category whose table is given by its
    ``columns`` t -> {s: s∘t} and whose inverse map is ``inverse``:
    g = (y, s, z) after f = (x, t, y) is the declared arrow (x, s∘t, z).

    For each f, one ``dict.update`` reads the arrows starting at y as
    parallel lists, the column of t and the map source -> base
    morphism -> target -> name, so no Python frame runs per pair.  The
    table is thus closed by construction, and its names are not checked
    again.  A composite that is not declared raises UNDECLARED_NAME for
    ``name(x, s∘t, z)``, the first in table order.

    The inverse of (x, s, z) is the declared arrow (z, s°, x), looked up
    in the same map; ``certified_inverse_structure`` checks it, and
    searches only when an arrow lacks it or the certificate fails."""
    named: dict[str, dict[str, dict[str, str]]] = {}
    for m, (x, s, z) in arrows.items():
        named.setdefault(x, {}).setdefault(s, {})[z] = m
    typing = {m: (x, z) for m, (x, _, z) in arrows.items()}
    table: dict[tuple[str, str], str] = {}
    # checks the declarations while the table is empty; it is filled in place
    cat = FiniteCategory._assemble(objects, typing, identities, table)
    left = {
        y: (gs, [arrows[g][1] for g in gs], [arrows[g][2] for g in gs])
        for y, gs in cat._by_src.items()
    }
    for f, (x, t, y) in arrows.items():
        gs, mids, ends = left.get(y, ((), (), ()))
        row, column = named[x], columns.get(t, {})
        composites = map(getitem, map(row.__getitem__, map(column.__getitem__, mids)), ends)
        try:
            table.update(zip(zip(gs, itertools.repeat(f)), composites))
        except KeyError:
            # the entries before the miss are in: name the first one left out
            s, z = next((s, z) for g, s, z in zip(gs, mids, ends) if (g, f) not in table)
            miss = name(x, column.get(s), z)
            raise UndeclaredName(f"composition entry uses undeclared morphism {miss!r}", name=miss) from None
    try:
        claimed = {m: named[z][inverse[s]][x] for m, (x, s, z) in arrows.items()}
    except KeyError:
        claimed = None
    return certified_inverse_structure(cat, claimed)


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
    dst_objects, dst_morphisms = set(dst_cat.objects), set(dst_cat.morphisms)
    for x in src_cat.objects:
        if x not in f.objects:
            report.add("functor-object-total", (x,), "object has no image")
        elif f.objects[x] not in dst_objects:
            report.add("functor-object-image", (x,), "image object not in target category")
    for m in src_cat.morphisms:
        if m not in f.morphisms:
            report.add("functor-morphism-total", (m,), "morphism has no image")
            continue
        fm = f.morphisms[m]
        if fm not in dst_morphisms:
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
    """g∘f (f first); raises NOT_A_FUNCTOR unless f ends where g starts."""
    if f.target != g.source:
        raise NotAFunctor("functors do not chain: the target of f is not the source of g")
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
    """For each object x, the targets of the invertible morphisms from x.

    Each isomorphism is witnessed by one invertible arrow, since a composite
    of invertible arrows is itself invertible and listed, so no closure is
    taken.  Assumes ``cat`` is a category (``validate_category``)."""
    iso: dict[str, set[str]] = {x: {x} for x in cat.objects}
    for s in invertible_morphisms(cat):
        iso[cat.src[s]].add(cat.tgt[s])
    return iso
