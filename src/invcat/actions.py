"""Actions of inverse categories on posets.

Three presentations of the same phenomenon, with converters between them:

* ``FibredAction``   a moment map plus a partially defined operation θ_s(x),
                     defined exactly when the moment of x sits below the
                     inner source of s (equals it, in strict mode);
* ``SymmetryAction`` a functor view: each object gets a fiber of the poset,
                     each morphism an order isomorphism between ideals;
* ``PartialActionBundle``  order isomorphisms θ_s : D_{s°} -> D_s
                     between ideals; each D_s is read off the range of θ_s.

Validation never materialises the (much larger) category of partial order
isomorphisms; functor laws are checked directly on the maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import InverseCategory, ValidationReport, associative_generators, natural_leq
from .errors import NotAFunctor, NotGlobal, NotIdeal
from .poset import (
    PartialOrderIso,
    Poset,
    compose_partial_isos,
    identity_iso,
    is_ideal,
    order_iso_failure,
    poset_from_relation,
)


# ---------------------------------------------------------------------------
# fibred actions


@dataclass(frozen=True)
class MomentMap:
    """Assigns each poset element its object and idempotent of reference."""

    obj: dict[str, str]
    idem: dict[str, str]

    def of(self, x: str) -> tuple[str, str]:
        return (self.obj[x], self.idem[x])


@dataclass
class FibredAction:
    """θ_s(x), defined exactly on the admissible pairs of the moment map.

    ``theta`` maps (morphism, element) to an element.  Admissibility of
    (s, x): the object of x is the source of s and the idempotent of x lies
    below s°s (equals s°s when ``strict``).
    """

    ic: InverseCategory
    poset: Poset
    moment: MomentMap
    theta: dict[tuple[str, str], str]
    strict: bool = False

    def admissible(self, s: str, x: str) -> bool:
        if self.moment.obj[x] != self.ic.src(s):
            return False
        e, d = self.moment.idem[x], self.ic.dom_idem(s)
        return e == d if self.strict else self.ic.leq_idem(e, d)

    def apply(self, s: str, x: str) -> str:
        return self.theta[(s, x)]

    def domain(self, s: str) -> frozenset[str]:
        """D_s = elements whose object is the target of s and whose
        idempotent sits below ss° (the *range* side of θ_s)."""
        t = self.ic.inv(s)
        return frozenset(x for x in self.poset.elements if self.admissible(t, x))


def validate_fibred(action: FibredAction) -> ValidationReport:
    """Check the fibred-action axioms.

    Rules: moment typing and monotonicity, exactness of the domain of θ,
    the unit law θ_{iρ(x)}(x) = x, the moment of an image, monotonicity of
    each θ_s, and the composition law in Kleene form (both sides defined
    together and then equal).  One witness per rule.

    A non-strict action whose acting category passes Light's test
    (``core.associative_generators``) is first checked with monotonicity
    and the composition law asked only of θ_s for s a generator or an
    identity.  That suffices: the s passing both are closed under
    composition, because θ_{ab} = θ_a∘θ_b then holds as partial maps, which
    needs dom θ_{ab} ⊆ dom θ_b, i.e. (ab)°ab ≤ b°b.  That holds in every
    inverse category, since (ab)°ab·b°b = b°a°ab·b°b = b°a°ab, so it is not
    checked.  Strict actions lack the domain inclusion.  When the first run
    finds anything, the report is that of the full run.
    """
    ic = action.ic
    below = frozenset((e, f) for f in ic.idempotents() for e in ic.idempotents_below(f))
    scope = None if action.strict else associative_generators(ic.cat)
    if scope is not None:
        report = _fibred_report(action, below, {*scope, *ic.cat.identity.values()})
        if report.ok:
            return report
    return _fibred_report(action, below, None)


def _fibred_report(
    action: FibredAction, below: frozenset[tuple[str, str]], scope: set[str] | None
) -> ValidationReport:
    """The rules of ``validate_fibred``, with monotonicity and the
    composition law checked for the θ_s with s in ``scope`` only (all s when
    ``scope`` is None)."""
    full = ValidationReport()
    add = full.add_first
    ic, poset, moment = action.ic, action.poset, action.moment
    mor_set = set(ic.morphisms)
    elt_set = set(poset.elements)

    for x in poset.elements:
        if x not in moment.obj or x not in moment.idem:
            add("moment-total", (x,), "element has no moment")
            continue
        e = moment.idem[x]
        if e not in mor_set or not ic.is_idempotent(e) or ic.src(e) != moment.obj[x]:
            add("moment-typing", (x,), "moment is not an idempotent at the element's object")
    if full.violations:
        return full

    for a, b in sorted(poset.relation):
        if a != b and (moment.idem[a], moment.idem[b]) not in below:
            add("moment-monotone", (a, b), "moment does not preserve the order")

    # the admissible elements of each morphism, in element order
    fibers: dict[str, list[str]] = {}
    for x in poset.elements:
        fibers.setdefault(moment.obj[x], []).append(x)
    adm = {}
    for s in ic.morphisms:
        d = ic.dom_idem(s)
        fiber = fibers.get(ic.src(s), ())
        if action.strict:
            adm[s] = [x for x in fiber if moment.idem[x] == d]
        else:
            adm[s] = [x for x in fiber if (moment.idem[x], d) in below]
    admissible = {(s, x) for s, xs in adm.items() for x in xs}
    for key in sorted(action.theta):
        if key not in admissible:
            add("theta-domain", key, "θ defined on a non-admissible pair")
    for key in sorted(admissible):
        if key not in action.theta:
            add("theta-domain", key, "θ missing on an admissible pair")
    for key in sorted(action.theta):
        if action.theta[key] not in elt_set:
            add("theta-image", key, "θ image is not a poset element")

    def value(s: str, x: str) -> str | None:
        """θ_s(x) when admissible and present, else None."""
        if (s, x) in admissible:
            return action.theta.get((s, x))
        return None

    for x in poset.elements:
        got = value(moment.idem[x], x)
        if got != x:
            add("axiom-i", (x,), f"θ_e(x) = {got!r} differs from x")

    for (s, x) in sorted(admissible):
        y = action.theta.get((s, x))
        if y is None or y not in elt_set:
            continue
        if moment.obj[y] != ic.tgt(s):
            add("axiom-ii", (s, x), "image lies in the wrong fiber")
            continue
        ran = ic.ran_idem(s)
        if (moment.idem[y], ran) not in below:
            add("axiom-ii", (s, x), "image idempotent does not sit below ss°")
        elif moment.idem[x] == ic.dom_idem(s) and moment.idem[y] != ran:
            add("axiom-ii", (s, x), "image idempotent must equal ss° when x sits at s°s")

    checked = ic.morphisms if scope is None else [s for s in ic.morphisms if s in scope]
    # each b of dom θ_s meets only the a ≤ b in dom θ_s; the least
    # offending (a, b) is the one a scan of sorted pairs finds first
    pos, down, theta = poset._pos, poset.down, action.theta
    for s in checked:
        dom_bits = poset._mask(adm[s])
        bad = []
        for b in adm[s]:
            yb = theta.get((s, b))
            if yb not in elt_set:
                continue
            for a in poset._below(b, dom_bits):
                ya = theta.get((s, a))
                if a != b and ya in elt_set and not down[pos[yb]] >> pos[ya] & 1:
                    bad.append((a, b))
        if bad:
            add("axiom-ii-monotone", (s, *min(bad)), "θ_s does not preserve the order")

    for t in ic.morphisms:
        images = [(x, theta.get((t, x))) for x in adm[t]]
        for s in ic.cat._by_src.get(ic.tgt(t), ()):
            st = ic.compose(s, t)
            if st is None or (scope is not None and s not in scope):
                continue
            for x, y in images:
                defined_lhs = y is not None and (s, y) in admissible
                defined_rhs = (st, x) in admissible
                lhs = theta.get((s, y)) if defined_lhs else None
                rhs = theta.get((st, x)) if defined_rhs else None
                if defined_lhs != defined_rhs or (defined_lhs and lhs != rhs):
                    add(
                        "axiom-iii",
                        (s, t, x),
                        f"θ_s∘θ_t gives {lhs!r} (defined={defined_lhs}) but "
                        f"θ_st gives {rhs!r} (defined={defined_rhs})",
                    )
    return full


# ---------------------------------------------------------------------------
# canonical examples of fibred actions


def natural_order_poset(ic: InverseCategory) -> Poset:
    """All morphisms under the natural partial order: s ≤ t exactly when
    s = t·e for an idempotent e ≤ t°t."""
    table = ic.cat.table
    pairs = ((table[(t, e)], t) for t in ic.morphisms for e in ic.idempotents_below(ic.dom_idem(t)))
    return poset_from_relation(ic.morphisms, pairs)


def canonical_self_action(ic: InverseCategory) -> FibredAction:
    """The category acting on its own morphisms by left composition.

    The moment of x is (target of x, xx°); θ_s(x) = sx.
    """
    poset = natural_order_poset(ic)
    moment = MomentMap(
        {x: ic.tgt(x) for x in ic.morphisms},
        {x: ic.ran_idem(x) for x in ic.morphisms},
    )
    below = {d: frozenset(ic.idempotents_below(d)) for d in ic.idempotents()}
    theta = {
        (s, x): ic.cat.table[(s, x)]
        for s in ic.morphisms
        for x in ic.costar(ic.src(s))
        if moment.idem[x] in below[ic.dom_idem(s)]
    }
    return FibredAction(ic, poset, moment, theta)


def conjugation_action(ic: InverseCategory) -> FibredAction:
    """The category acting on its idempotents by e ↦ ses°."""
    idem = ic.idempotents()
    poset = poset_from_relation(idem, ((e, f) for f in idem for e in ic.idempotents_below(f)))
    moment = MomentMap({e: ic.src(e) for e in idem}, {e: e for e in idem})
    table = ic.cat.table
    theta = {
        (s, e): table[(table[(s, e)], ic.inv(s))]
        for s in ic.morphisms
        for e in ic.idempotents_below(ic.dom_idem(s))
    }
    return FibredAction(ic, poset, moment, theta)


# ---------------------------------------------------------------------------
# symmetry actions (the functor view)


@dataclass
class SymmetryAction:
    """Functor into partial order isomorphisms of a poset.

    ``fibers`` maps each object to its ideal of the poset; ``isos`` maps each
    morphism s to an order isomorphism whose domain is the domain bundle
    element D_{s°} and whose range is D_s.
    """

    ic: InverseCategory
    poset: Poset
    fibers: dict[str, frozenset[str]]
    isos: dict[str, PartialOrderIso]


def fibred_to_symmetry(action: FibredAction) -> SymmetryAction:
    """Package a fibred action as a functor: fibers by object, θ_s as isos."""
    ic, poset = action.ic, action.poset
    fibers = {
        X: frozenset(x for x in poset.elements if action.moment.obj[x] == X)
        for X in ic.objects
    }
    graphs: dict[str, list[tuple[str, str]]] = {s: [] for s in ic.morphisms}
    for (m, x), y in action.theta.items():
        if m in graphs:
            graphs[m].append((x, y))
    isos = {s: PartialOrderIso(tuple(sorted(graph))) for s, graph in graphs.items()}
    return SymmetryAction(ic, poset, fibers, isos)


def validate_symmetry(sym: SymmetryAction) -> ValidationReport:
    """Check the functor laws directly, without building the target category.

    Rules: fibers are ideals partitioning the poset; each iso is an order
    isomorphism between ideals inside the right fibers; identities act as
    identities on their fiber; composition and inverses are preserved.

    When the acting category passes Light's test
    (``core.associative_generators``), the order test of
    ``order_iso_failure`` and the composition law are first asked of the
    generators g only, Θ(g)∘Θ(t) = Θ(gt) for every t.  That suffices: the s
    passing both are closed under composition, and identities pass them
    once the identity and typing rules hold.  When the first run finds
    anything, the report is that of the full run.
    """
    gens = associative_generators(sym.ic.cat)
    if gens is not None:
        report = _symmetry_report(sym, set(gens))
        if report.ok:
            return report
    return _symmetry_report(sym, None)


def _symmetry_report(sym: SymmetryAction, scope: set[str] | None) -> ValidationReport:
    """The rules of ``validate_symmetry``, with the order test and the
    composition law checked for Θ(s), s in ``scope``, only (all s when
    ``scope`` is None)."""
    full = ValidationReport()
    add = full.add_first
    ic, poset = sym.ic, sym.poset
    covered: list[str] = []
    for X in ic.objects:
        fib = sym.fibers.get(X)
        if fib is None:
            add("fiber-total", (X,), "object has no fiber")
            continue
        if not is_ideal(poset, fib):
            add("fiber-ideal", (X,), "fiber is not an ideal of the poset")
        covered.extend(fib)
    if sorted(covered) != sorted(poset.elements):
        add("fiber-partition", (), "fibers do not partition the poset")

    for s in ic.morphisms:
        iso = sym.isos.get(s)
        if iso is None:
            add("iso-total", (s,), "morphism has no order isomorphism")
            continue
        if scope is None or s in scope:
            failure = order_iso_failure(poset, iso.pairs)
            if failure is not None:
                add("iso-order", (s,), f"not an order isomorphism: {failure!r}")
                continue
        if not (iso.dom <= sym.fibers.get(ic.src(s), frozenset())):
            add("iso-typing", (s,), "domain leaves the source fiber")
        if not (iso.ran <= sym.fibers.get(ic.tgt(s), frozenset())):
            add("iso-typing", (s,), "range leaves the target fiber")
        if not is_ideal(poset, iso.dom) or not is_ideal(poset, iso.ran):
            add("iso-ideal", (s,), "domain or range is not an ideal")
    if full.violations:
        return full

    for X in ic.objects:
        if sym.isos[ic.identity_of(X)] != identity_iso(sym.fibers[X]):
            add("functor-identity", (X,), "identity does not act as the identity of its fiber")
    table = ic.cat.table
    if scope is None:
        pairs = table.items()
    else:
        gens = [g for g in ic.morphisms if g in scope]
        pairs = [((g, t), table[(g, t)]) for g in gens for t in ic.costar(ic.src(g))]
    for (s, t), st in pairs:
        if compose_partial_isos(sym.isos[s], sym.isos[t]) != sym.isos[st]:
            add("functor-composition", (s, t), "Θ(s)∘Θ(t) differs from Θ(st)")
    for s in ic.morphisms:
        if sym.isos[ic.inv(s)] != sym.isos[s].inverse():
            add("functor-inverse", (s,), "Θ(s°) differs from Θ(s)⁻¹")
    return full


# ---------------------------------------------------------------------------
# partial action bundles


@dataclass
class PartialActionBundle:
    """Order isos θ_s : D_{s°} -> D_s between ideals of the poset.

    Only the maps are stored: D_s is the range of θ_s, so the domain of
    θ_s is D_{s°} exactly when θ_{s°} is its inverse, which
    ``validate_partial`` checks.
    """

    ic: InverseCategory
    poset: Poset
    maps: dict[str, PartialOrderIso]
    strict: bool = False

    @property
    def domains(self) -> dict[str, frozenset[str]]:
        """D_s = ran θ_s, for each morphism s with a map."""
        return {s: iso.ran for s, iso in self.maps.items()}

    def require_total(self) -> None:
        """Raise NOT_A_FUNCTOR naming the first morphism, in declaration
        order, that has no map; ``validate_partial`` reports the same
        morphism as ``bundle-total``."""
        missing = next((s for s in self.ic.morphisms if s not in self.maps), None)
        if missing is not None:
            raise NotAFunctor(f"morphism {missing!r} has no map", morphism=missing)

    def is_global(self) -> bool:
        """Whether every D_s equals D_{ss°}; NOT_A_FUNCTOR when some
        morphism has no map."""
        self.require_total()
        domains = self.domains
        return all(domains[s] == domains[self.ic.ran_idem(s)] for s in self.ic.morphisms)


def symmetry_to_partial(sym: SymmetryAction) -> PartialActionBundle:
    """Read the bundle off a symmetry action: θ_s is Θ(s), so D_s is the
    range of Θ(s).

    Raises NOT_A_FUNCTOR when the symmetry action fails its functor laws.
    """
    report = validate_symmetry(sym)
    if not report.ok:
        raise NotAFunctor(
            f"symmetry action violates {', '.join(report.rules())}",
            rules=report.rules(),
            first=str(report.violations[0]),
        )
    return PartialActionBundle(sym.ic, sym.poset, dict(sym.isos))


def validate_partial(bundle: PartialActionBundle) -> ValidationReport:
    """Check the axioms of a partial action bundle.

    Non-strict rules: each θ_s is an order isomorphism onto the ideal D_s,
    with θ_{s°} its inverse, so that it runs from D_{s°}; the identity
    domains cover the poset; θ_e is the identity of D_e; s ≤ t forces
    D_{s°} ⊆ D_{t°} with θ_t restricting to θ_s; D_s ⊆ D_{ss°}; and for st
    defined, θ_s(D_{s°} ∩ D_t) = D_s ∩ D_{st} with θ_s∘θ_t = θ_{st} where
    composable.  Each D_s is read off the range of θ_s.

    Strict mode keeps the same shape but weakens four rules: domains need
    not be ideals, the cover runs over all idempotent domains, comparable
    morphisms must merely agree on the common domain, and only the forward
    inclusion θ_s(D_{s°} ∩ D_t) ⊆ D_s ∩ D_{st} is required.
    """
    full = ValidationReport()
    add = full.add_first
    ic, poset = bundle.ic, bundle.poset

    for s in ic.morphisms:
        if s not in bundle.maps:
            add("bundle-total", (s,), "morphism has no map")
    if full.violations:
        return full

    inv, domains = ic.inv, bundle.domains
    lookup = {s: dict(bundle.maps[s].pairs) for s in ic.morphisms}
    for s in ic.morphisms:
        iso = bundle.maps[s]
        failure = order_iso_failure(poset, iso.pairs)
        if failure is not None:
            add("axiom-i", (s,), f"θ_s is not an order isomorphism: {failure!r}")
            continue
        if not bundle.strict and not is_ideal(poset, domains[s]):
            add("axiom-i", (s,), "D_s is not an ideal")
        if bundle.maps[inv(s)] != iso.inverse():
            add("axiom-i", (s,), "θ_{s°} is not the inverse of θ_s")

    if bundle.strict:
        cover = frozenset().union(*(domains[e] for e in ic.idempotents()))
    else:
        cover = frozenset().union(
            *(domains[ic.identity_of(X)] for X in ic.objects)
        )
    if cover != frozenset(poset.elements):
        add("axiom-ii", (), "identity domains do not cover the poset")

    for e in ic.idempotents():
        if bundle.maps[e] != identity_iso(domains[e]):
            add("axiom-iii", (e,), "θ_e is not the identity of D_e")

    for s in ic.morphisms:
        for t in ic.cat.hom(ic.src(s), ic.tgt(s)):
            if s == t or not natural_leq(ic, s, t):
                continue
            ds, dt = domains[inv(s)], domains[inv(t)]
            if not bundle.strict and not ds <= dt:
                add("axiom-iv", (s, t), "s ≤ t but D_{s°} is not inside D_{t°}")
            common = ds & dt
            lookup_t, lookup_s = lookup[t], lookup[s]
            for x in sorted(common):
                if lookup_t.get(x) != lookup_s.get(x):
                    add("axiom-iv", (s, t, x), "θ_t does not restrict to θ_s")

    for s in ic.morphisms:
        if not domains[s] <= domains[ic.ran_idem(s)]:
            add("axiom-v", (s,), "D_s leaves D_{ss°}")

    for (s, t), st in ic.cat.table.items():
        lookup_s, lookup_t, lookup_st = lookup[s], lookup[t], lookup[st]
        # points of D_{s°} outside θ_s are reported under axiom-i
        lhs = frozenset(
            lookup_s[x] for x in domains[inv(s)] & domains[t] if x in lookup_s
        )
        rhs = domains[s] & domains[st]
        if bundle.strict:
            if not lhs <= rhs:
                add("axiom-vi", (s, t), "θ_s(D_{s°} ∩ D_t) leaves D_s ∩ D_{st}")
        elif lhs != rhs:
            add("axiom-vi", (s, t), f"θ_s(D_{{s°}} ∩ D_t) = {sorted(lhs)} differs from D_s ∩ D_{{st}} = {sorted(rhs)}")
        back = lookup[inv(t)]
        for y in sorted(domains[t] & domains[inv(s)]):
            x = back.get(y)
            if x is None or lookup_t.get(x) != y:
                continue  # broken iso, reported under axiom-i
            via = lookup_s.get(y)
            direct = lookup_st.get(x)
            if bundle.strict:
                if via is not None and direct is not None and via != direct:
                    add("axiom-vi", (s, t, x), "θ_s∘θ_t and θ_{st} disagree where both are defined")
            elif via != direct or via is None:
                add("axiom-vi", (s, t, x), f"θ_s∘θ_t gives {via!r} but θ_{{st}} gives {direct!r}")
    return full


def restrict_to_ideal(bundle: PartialActionBundle, subset: Iterable[str]) -> PartialActionBundle:
    """Cut a *global* bundle down to an ideal Q of its poset.

    The new maps keep the pairs of θ_s with both ends in Q, so the new
    domains are D'_s = (Q ∩ D_s) ∩ θ_s(Q ∩ D_{s°}).  The result is
    generally partial, no longer global.  Raises NOT_A_FUNCTOR when some
    morphism has no map, NOT_GLOBAL on a non-global input and NOT_IDEAL
    when Q is not an ideal.
    """
    bundle.require_total()
    q = frozenset(subset)
    ic, poset, domains = bundle.ic, bundle.poset, bundle.domains
    witness = next((s for s in ic.morphisms if domains[s] != domains[ic.ran_idem(s)]), None)
    if witness is not None:
        raise NotGlobal(
            f"domain of {witness!r} differs from its idempotent's domain",
            morphism=witness,
        )
    unknown = q - set(poset.elements)
    if unknown:
        raise NotIdeal(
            f"subset contains non-elements {sorted(unknown)}", extraneous=sorted(unknown)
        )
    if not is_ideal(poset, q):
        raise NotIdeal("subset is not downward closed", subset=sorted(q))
    sub = poset_from_relation(
        tuple(x for x in poset.elements if x in q), ((a, b) for a, b in poset.relation if a in q and b in q)
    )
    maps = {
        s: PartialOrderIso(tuple(sorted(p for p in bundle.maps[s].pairs if p[0] in q and p[1] in q)))
        for s in ic.morphisms
    }
    return PartialActionBundle(ic, sub, maps)
