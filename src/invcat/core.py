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
  and by target once, and by (source, target) on first use, in
  declaration order; hom-sets, stars, costars and the inverse search read
  these buckets.  Every derived category is built by ``join_category``
  from triples (source, base morphism, target) over a base inverse
  category, read in its arrow numbers (``FiniteCategory.ints``), composing
  each arrow only with the arrows starting where it ends, so its cost
  follows the composable pairs.  It looks every composite up among the
  declared arrows, so its table is closed by construction, and stores it
  as arrow numbers, one row per right arrow; its name-keyed ``table`` is
  made on first read.  ``FiniteCategory.build`` checks all of a table's
  names at once, as one set, and scans entry by entry only to report the
  first undeclared one.
* Only this module knows how a category is stored (its buckets, ``ints()``,
  the class of a joined category); others call ``InverseCategory.star``,
  ``costar``, ``FiniteCategory.from_rows`` and ``table_lines``.
* Associativity is decided by Light's test on the generating set of
  ``generators``; the action validators check their composition laws on
  the same generators once the acting category passes.
* Inverses are certified, not searched for, wherever a map s ↦ s° is
  known: ``certified_inverse_structure`` accepts an involution s ↦ s°
  with s·s°·s = s when the idempotents at each object commute.  In an
  associative category these make s° the only generalized inverse of s
  (Lawson, *Inverse Semigroups*, 1998, Thm 1.1.3, whose proof multiplies
  idempotents at one object only).  ``join_category`` names each arrow's
  inverse from the base inverse map, and the CLI hands over a spec's
  declared ``"inverse"``.  When the certificate fails,
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


@dataclass(slots=True)
class FiniteCategory:
    """A finite category presented by explicit tables.

    ``src``/``tgt`` type every morphism, ``identity`` names the identity of
    each object, and ``table`` holds every defined composite keyed by
    ``(after, first)``.  A joined category is given no table: it holds the
    rows of ``ints()`` and is a ``_Joined`` until its first read of
    ``table``."""

    objects: tuple[str, ...]
    morphisms: tuple[str, ...]
    src: dict[str, str]
    tgt: dict[str, str]
    identity: dict[str, str]
    table: dict[tuple[str, str], str]
    _by_src: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _by_tgt: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _by_hom: dict[tuple[str, str], tuple[str, ...]] | None = field(default=None, init=False, repr=False, compare=False)
    _ints: "_IntTable | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.table is None:
            del self.table
            self.__class__ = _Joined
        self._by_src = _buckets(self.morphisms, self.src.__getitem__)
        self._by_tgt = _buckets(self.morphisms, self.tgt.__getitem__)

    def ints(self) -> "_IntTable":
        """The table in arrow numbers; read off a given table on first use."""
        if self._ints is None:
            self._ints = _IntTable(self)
        return self._ints

    @staticmethod
    def build(
        objects: Iterable[str],
        morphisms: Mapping[str, tuple[str, str]],
        identities: Mapping[str, str],
        composition: dict[tuple[str, str], str],
    ) -> "FiniteCategory":
        """Assemble a category, rejecting any reference to an undeclared name.

        Sources and targets are stored as the declared object names.  The
        table is the dict ``composition`` itself, not a copy: the caller
        hands it over and must not change it afterwards.  Its names are
        checked in bulk, as one set against the declared morphisms; only
        when that fails does the ordered scan run, so UNDECLARED_NAME names
        the first offending name in table order."""
        return FiniteCategory._assemble(objects, morphisms, identities, composition)

    @staticmethod
    def from_rows(
        objects: Iterable[str], morphisms: Mapping[str, tuple[str, str]], identities: Mapping[str, str], rows: list[list[int]]
    ) -> "FiniteCategory":
        """``build`` from the table in arrow numbers, as ``ints()`` holds it:
        morphism i is the i-th of ``morphisms``, and ``rows[f]`` lists g∘f
        for each g leaving tgt f, in declaration order.  The rows are stored
        unchecked; ``table`` is named on its first read."""
        cat = FiniteCategory._assemble(objects, morphisms, identities, None)
        cat._ints = _IntTable(cat, rows)
        return cat

    @staticmethod
    def _assemble(
        objects: Iterable[str],
        morphisms: Mapping[str, tuple[str, str]],
        identities: Mapping[str, str],
        table: dict[tuple[str, str], str] | None,
    ) -> "FiniteCategory":
        """``build``, also for a joined category, whose ``table`` is None
        and whose rows the caller stores in ``_ints``."""
        objs = tuple(objects)
        mors = tuple(morphisms)
        oset, mset = {x: x for x in objs}, set(mors)
        if len(oset) != len(objs):
            raise UndeclaredName("duplicate object declaration", objects=objs)
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
        names = {} if table is None else table
        used = set(itertools.chain.from_iterable(names))
        used.update(names.values())
        if not used <= mset:
            for pair, h in names.items():
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
        if self._by_hom is None:  # on first use: a join's own path asks for no hom-set
            src, tgt = self.src, self.tgt
            self._by_hom = _buckets(self.morphisms, lambda m: (src[m], tgt[m]))
        return self._by_hom.get((x, y), ())

    def endo(self, x: str) -> tuple[str, ...]:
        return self.hom(x, x)

    def is_identity(self, m: str) -> bool:
        return self.identity.get(self.src[m]) == m

    def parallel(self, s: str, t: str) -> bool:
        return self.src[s] == self.src[t] and self.tgt[s] == self.tgt[t]

    def table_lines(self, line: str, label: Mapping[str, str]) -> list[str]:
        """``line % (label[g], label[f], label[g∘f])`` for each composite,
        sorted by (g, f).  A joined category writes its rows without naming
        its table, reading each label once per morphism."""
        table = self.table
        return [line % (label[g], label[f], label[table[g, f]]) for g, f in sorted(table)]


class _Joined(FiniteCategory):
    """A joined category before its table is read: the first read names the
    rows of ``ints()`` (f in declaration order, then each g leaving tgt f)
    into a plain dict and makes it a ``FiniteCategory``.  On that class, a
    ``__getattr__`` or a class attribute ``table`` would keep the
    interpreter from specialising every category's reads of ``table``."""

    __slots__ = ()

    def __getattr__(self, name: str) -> dict[tuple[str, str], str]:
        if name != "table":  # only the unset table slot gets here
            raise AttributeError(name)
        mors, tgt, by_src = self.morphisms, self.tgt, self._by_src
        table = {}
        for f, row in zip(mors, self.ints().rows):
            table.update(zip(zip(by_src.get(tgt[f], ()), itertools.repeat(f)), map(mors.__getitem__, row)))
        self.__class__ = FiniteCategory
        self.table = table
        return table

    def __eq__(self, other: object) -> bool:
        return self.table is not None and self == other  # compared once named

    def table_lines(self, line: str, label: Mapping[str, str]) -> list[str]:
        ints, names = self.ints(), [label[m] for m in self.morphisms]
        right = {y: [(label[f], ints.rows[ints.num[f]]) for f in sorted(fs)] for y, fs in self._by_tgt.items()}
        pairs = sorted(zip(self.morphisms, ints.place))
        return [line % (label[g], lf, names[row[k]]) for g, k in pairs for lf, row in right.get(self.src[g], ())]


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
    if report.ok and light_test(cat) is not None:
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
    """A composition table in arrow numbers: the one table of a joined
    category, or read off a given table, which must then hold exactly the
    composable pairs (the exactness rules of ``validate_category``).

    Morphism i is ``cat.morphisms[i]`` (``num`` numbers the names), and
    ``rows[f][place[g]]`` is g∘f: row f lists the g∘f for the g leaving
    tgt f, in source-bucket order, and ``place[g]`` is the place of g among
    the morphisms leaving src g."""

    def __init__(self, cat: FiniteCategory, rows: list[list[int]] | None = None) -> None:
        self.num = num = {m: i for i, m in enumerate(cat.morphisms)}
        self.src = [cat.src[m] for m in cat.morphisms]
        self.tgt = [cat.tgt[m] for m in cat.morphisms]
        self.place = [0] * len(num)
        for bucket in cat._by_src.values():
            for k, g in enumerate(bucket):
                self.place[num[g]] = k
        if rows is None:
            table, by_src = cat.table, cat._by_src
            rows = [[num[table[g, f]] for g in by_src.get(cat.tgt[f], ())] for f in cat.morphisms]
        self.rows = rows
        self.units = [num[m] for m in cat.identity.values()]

    def idempotents(self) -> list[int]:
        """The e with e∘e = e, in declaration order."""
        rows, place, src, tgt = self.rows, self.place, self.src, self.tgt
        return [e for e, row in enumerate(rows) if src[e] == tgt[e] and row[place[e]] == e]

    def generators(self) -> list[int]:
        """Greedy: the morphisms that are seldom composites come first,
        being the likeliest to be needed (ties keep declaration order).
        What is reached, starting from the identities, stays closed under
        y ↦ y∘g for the generators g so far, so a morphism not yet reached
        becomes the next generator."""
        rows, place, src, tgt = self.rows, self.place, self.src, self.tgt
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
            row = rows[x]
            frontier = [x, *(row[place[y]] for y in reached_from.get(tgt[x], ()))]
            while frontier:
                y = frontier.pop()
                if y not in reached:
                    reached.add(y)
                    reached_from.setdefault(src[y], []).append(y)
                    k = place[y]
                    frontier.extend(rows[g][k] for g in into.get(src[y], ()))
        return gens

    def associative_at(self, gens: Iterable[int]) -> bool:
        """(h∘g)∘f = h∘(g∘f) for each g of ``gens`` and all h, f composable
        with it: row g∘f must equal row f read at the places of the h∘g."""
        rows, place = self.rows, self.place
        costar = _buckets(range(len(rows)), self.tgt.__getitem__)
        for g in gens:
            k = place[g]
            places = [place[hg] for hg in rows[g]]
            for f in costar.get(self.src[g], ()):
                row = rows[f]
                if rows[row[k]] != [row[j] for j in places]:
                    return False
        return True


def generators(cat: FiniteCategory) -> tuple[str, ...]:
    """A generating set of ``cat``: every morphism is an identity or a
    composite g1∘g2∘…∘gk (k ≥ 1) of generators, listed in the order they
    are chosen.  One walk over the composable pairs counts how often each
    morphism is a composite; see ``_IntTable.generators``.  Assumes the
    table holds the composable pairs (``validate_category``)."""
    return tuple(cat.morphisms[g] for g in cat.ints().generators())


def light_test(cat: FiniteCategory) -> tuple[str, ...] | None:
    """``generators(cat)`` when Light's test (Clifford & Preston, *The
    Algebraic Theory of Semigroups* I, §1.2) passes on them, else None.

    The test asks (h∘g)∘f = h∘(g∘f) for a generator g and all h, f
    composable with it.  The g passing it are closed under composition (for
    a, b passing, h∘((a∘b)∘f) = ((h∘a)∘b)∘f by four uses of the test), and
    neutral identities pass it, so a generating set that passes makes the
    category associative.  Needs the exactness rules of
    ``validate_category``, and its identity rules when ``cat`` declares
    identities."""
    ints = cat.ints()
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
    return light_test(cat) if _table_report(cat).ok else None


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
            self._idem = tuple(sorted(map(self.morphisms.__getitem__, self.cat.ints().idempotents())))
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

        Raises UNDECLARED_NAME for a name that is no morphism, NOT_IDEMPOTENT
        unless both arguments are idempotents, and NOT_COMPOSABLE for
        idempotents at different objects."""
        for m in (e, f):
            if not self.is_idempotent(m):
                if m not in self.cat.src:
                    raise UndeclaredName(f"no morphism {m!r}", name=m)
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
    for t in cat.hom(cat.tgt[s], cat.src[s]):
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

    The certificate asks s°° = s and s·s°·s = s (so s°·s·s° = s°) of every
    morphism s, and ef = fe of all idempotents e, f at each object, on the
    rows of ``cat.ints()``.  It makes s° the unique generalized inverse of
    s: if t and t' both are one, then ts, t's are idempotents at the source
    of s and st, st' at its target, so t = (ts)(t's)t = (t's)(ts)t = t'st =
    t'(st')(st) = t'(st)(st') = t' (Lawson, *Inverse Semigroups*, 1998,
    Thm 1.1.3).  The map returned is ``inverse`` read in declaration order,
    as the search would build it."""
    if inverse is not None:
        ints = cat.ints()
        if _certifies(ints, [ints.num.get(inverse.get(m)) for m in cat.morphisms]):
            return InverseCategory(cat, {s: inverse[s] for s in cat.morphisms})
    return find_inverse_structure(cat)


def _certifies(ints: _IntTable, inv: list[int | None]) -> bool:
    """Whether the arrow numbers ``inv`` pass the certificate of
    ``certified_inverse_structure``, each law read for all s at once."""
    rows, place, src, tgt = ints.rows, ints.place, ints.src, ints.tgt
    if None in inv or list(map(src.__getitem__, inv)) != tgt or list(map(tgt.__getitem__, inv)) != src:
        return False
    if list(map(inv.__getitem__, inv)) != list(range(len(rows))):  # s°° = s
        return False
    ts = list(map(getitem, rows, map(place.__getitem__, inv)))  # s°∘s
    if list(map(getitem, map(rows.__getitem__, ts), place)) != list(range(len(rows))):
        return False
    for es in _buckets(ints.idempotents(), src.__getitem__).values():
        if any(rows[f][place[e]] != rows[e][place[f]] for e, f in itertools.combinations(es, 2)):
            return False
    return True


def join_category(
    objects: Iterable[str],
    arrows: Mapping[str, tuple[str, str, str]],
    identities: Mapping[str, str],
    base: InverseCategory,
    name: Callable[[str, str, str], str],
) -> InverseCategory:
    """Build and verify the inverse category whose arrows are the distinct
    triples ``arrows`` (name -> (source, base morphism, target), in
    declaration order) over the inverse category ``base``: g = (y, s, z)
    after f = (x, t, y) is the declared arrow (x, s∘t, z).

    Row f of ``ints()`` is one list of arrow numbers, read off the arrows
    starting at y (as parallel lists of base places and targets), row t of
    ``base.cat.ints()`` and the map source -> base number -> target ->
    arrow number, so no Python frame, key or name is made per pair;
    ``table`` is named only when it is read.  Each y must lie over one
    base object: the base arrows leaving y start where those entering y
    end, one test per arrow, else NOT_COMPOSABLE.  A composite that is not
    declared raises UNDECLARED_NAME for ``name(x, s∘t, z)``.  Either error
    is raised for the first pair in table order.

    The inverse of (x, s, z) is the declared arrow (z, s°, x), looked up
    in the same map; ``certified_inverse_structure`` checks it, and
    searches only when an arrow lacks it or the certificate fails."""
    over, mors = base.cat.ints(), base.cat.morphisms
    named: dict[str, dict[int, dict[str, int]]] = {}
    for i, (x, s, z) in enumerate(arrows.values()):
        named.setdefault(x, {}).setdefault(over.num[s], {})[z] = i
    cat = FiniteCategory._assemble(objects, {m: (x, z) for m, (x, _, z) in arrows.items()}, identities, None)
    left = {}  # y -> (the one base object the arrows leaving y start at, their base places, their targets)
    for y, gs in cat._by_src.items():
        ss = [over.num[arrows[g][1]] for g in gs]
        start = set(map(over.src.__getitem__, ss))
        left[y] = (start.pop() if len(start) == 1 else None, [over.place[s] for s in ss], [arrows[g][2] for g in gs])
    rows: list[list[int]] = []
    for x, t, y in arrows.values():
        t = over.num[t]
        start, places, ends = left.get(y) or (over.tgt[t], (), ())
        row, column = named[x], over.rows[t]
        if start == over.tgt[t]:
            try:
                rows.append(list(map(getitem, map(row.__getitem__, map(column.__getitem__, places)), ends)))
                continue
            except KeyError:
                pass
        for _, s, z in map(arrows.__getitem__, cat._by_src[y]):  # the first (y, s, z) with no composite
            s = over.num[s]
            if over.src[s] != over.tgt[t]:
                raise NotComposable("base morphisms do not compose", left=mors[s], right=mors[t])
            if z not in row.get(column[over.place[s]], ()):
                miss = name(x, mors[column[over.place[s]]], z)
                raise UndeclaredName(f"composition entry uses undeclared morphism {miss!r}", name=miss)
    cat._ints = _IntTable(cat, rows)
    try:
        claimed = {m: cat.morphisms[named[z][over.num[base.inverse[s]]][x]] for m, (x, s, z) in arrows.items()}
    except KeyError:
        claimed = None
    return certified_inverse_structure(cat, claimed)


def natural_leq(ic: InverseCategory, s: str, t: str) -> bool:
    """Natural partial order: s ≤ t iff s = ss°·t.

    In an inverse category this agrees with the other usual
    characterisations (s = te or s = ft for idempotents e, f; s = ts°s),
    so only ss°·t is evaluated.  Raises NOT_PARALLEL unless s and t share
    source and target, and UNDECLARED_NAME for a name that is no morphism.
    """
    cat = ic.cat
    try:
        parallel = cat.parallel(s, t)
    except KeyError as exc:
        raise UndeclaredName(f"no morphism {exc.args[0]!r}", name=exc.args[0]) from None
    if not parallel:
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
    """g∘f (f first); raises NOT_A_FUNCTOR unless f ends where g starts and
    g maps every image of f, naming the first it misses (objects first)."""
    if f.target != g.source:
        raise NotAFunctor("functors do not chain: the target of f is not the source of g")
    try:
        return Functor(
            f.source,
            g.target,
            {x: g.objects[y] for x, y in f.objects.items()},
            {m: g.morphisms[n] for m, n in f.morphisms.items()},
        )
    except KeyError as exc:
        raise NotAFunctor(f"the image {exc.args[0]!r} of f has no image under g", name=exc.args[0]) from None


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
