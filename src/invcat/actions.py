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
isomorphisms; functor laws are checked directly on the maps.  Each rule is
first decided by a kernel whose steps are C-level lookups: set differences
or lists of ``dict.get`` compared whole; order questions are asked of
``poset``, which answers them on its masks and lower covers.  The ordered
scan of a rule runs only for a map or pair whose kernel says no, and only
to name the first witness, so every report is the one the scans alone
would give; the fibred composition law reads its witness off its own two
lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import compress, repeat
from typing import Iterable

from .core import InverseCategory, ValidationReport, associative_generators
from .errors import NotAFunctor, NotGlobal, NotIdeal
from .poset import (
    PartialOrderIso,
    Poset,
    identity_iso,
    is_ideal,
    label_monotone_failure,
    monotone_failure,
    order_iso_failure,
    poset_from_relation,
    subposet,
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

    The kernels: the monotonicity of moments and of each θ_s is asked of
    ``poset`` (dom θ_s is an ideal once moments are monotone); the domain
    and image rules are set differences with ``min`` for the witness; the
    composition law compares, per
    pair (s, t), the lists θ_s(θ_t x) and θ_st(x) along dom θ_t, with one
    sentinel for a pair that is not admissible, and its witness is the
    first x where they differ.

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
    lower = {f: frozenset(ic.idempotents_below(f)) for f in ic.idempotents()}
    scope = None if action.strict else associative_generators(ic.cat)
    if scope is not None:
        report = _fibred_report(action, lower, {*scope, *ic.cat.identity.values()})
        if report.ok:
            return report
    return _fibred_report(action, lower, None)


def _fibred_report(
    action: FibredAction, lower: dict[str, frozenset[str]], scope: set[str] | None
) -> ValidationReport:
    """The rules of ``validate_fibred``, with monotonicity and the
    composition law checked for the θ_s with s in ``scope`` only (all s when
    ``scope`` is None).  ``lower`` maps each idempotent f to the
    idempotents e ≤ f."""
    full = ValidationReport()
    add = full.add_first
    ic, poset, moment, theta = action.ic, action.poset, action.moment, action.theta
    elements = poset.elements
    mor_set = set(ic.morphisms)
    elt_set = set(elements)

    for x in elements:
        if x not in moment.obj or x not in moment.idem:
            add("moment-total", (x,), "element has no moment")
            continue
        e = moment.idem[x]
        if e not in mor_set or not ic.is_idempotent(e) or ic.src(e) != moment.obj[x]:
            add("moment-typing", (x,), "moment is not an idempotent at the element's object")
    if full.violations:
        return full

    # the elements at each idempotent, and those whose idempotent is below
    # f: the admissible elements of every s with s°s = f (moments are typed
    # now, so these lie in the fiber of the source of s)
    idem_of = moment.idem
    idem = list(map(idem_of.__getitem__, elements))
    at: dict[str, list[str]] = {}
    for x, e in zip(elements, idem):
        at.setdefault(e, []).append(x)
    under = {f: list(compress(elements, map(es.__contains__, idem))) for f, es in lower.items()}
    bad = label_monotone_failure(poset, idem_of, lower)  # a ≤ b needs e(a) ≤ e(b)
    monotone = bad is None
    if not monotone:
        add("moment-monotone", bad, "moment does not preserve the order")

    adm = {s: at.get(ic.dom_idem(s), []) if action.strict else under[ic.dom_idem(s)] for s in ic.morphisms}
    admissible: set[tuple[str, str]] = set()
    for s, xs in adm.items():
        admissible.update(zip(repeat(s), xs))
    extra = theta.keys() - admissible
    if extra:
        add("theta-domain", min(extra), "θ defined on a non-admissible pair")
    missing = admissible - theta.keys()
    if missing:
        add("theta-domain", min(missing), "θ missing on an admissible pair")
    strays = set(theta.values()) - elt_set
    if strays:
        add("theta-image", min(k for k, y in theta.items() if y in strays), "θ image is not a poset element")
    # θ_s(x) per admissible x, in the order of adm[s], as a list and a map
    images = {s: list(map(theta.get, zip(repeat(s), xs))) for s, xs in adm.items()}
    maps = {s: dict(zip(adm[s], ys)) for s, ys in images.items()}

    units = list(map(theta.get, zip(idem, elements)))  # (e(x), x) is admissible
    if units != list(elements):
        x, got = next((x, got) for x, got in zip(elements, units) if got != x)
        add("axiom-i", (x,), f"θ_e(x) = {got!r} differs from x")

    # sorted (s, x) order: the least s whose images are not all sound is scanned
    for s in sorted(ic.morphisms):
        ys, ran = images[s], ic.ran_idem(s)
        if elt_set.issuperset(ys) and lower[ran].issuperset(map(idem_of.__getitem__, ys)):
            # an image under ss° lies in the target fiber; those of x at s°s sit at ss°
            at_dom = map(maps[s].__getitem__, at.get(ic.dom_idem(s), ()))
            if all(map(ran.__eq__, map(idem_of.__getitem__, at_dom))):
                continue
        witness = _image_moment_failure(action, lower, s, adm[s], elt_set)
        if witness is not None:
            add("axiom-ii", *witness)
            break

    checked = ic.morphisms if scope is None else [s for s in ic.morphisms if s in scope]
    # dom θ_s is an ideal once moments are monotone, unless the action is strict
    for s in checked:
        bad = monotone_failure(poset, adm[s], images[s], monotone and not action.strict)
        if bad is not None:
            add("axiom-ii-monotone", (s, *bad), "θ_s does not preserve the order")
            break

    # θ_s∘θ_t against θ_st along dom θ_t, a pair that is not admissible
    # read as ``undefined`` on either side; the first x where they differ
    undefined = object()
    for t in ic.morphisms:
        for s in ic.star(ic.tgt(t)):
            st = ic.compose(s, t)
            if st is None or (scope is not None and s not in scope):
                continue
            lhs = list(map(maps[s].get, images[t], repeat(undefined)))
            rhs = list(map(maps[st].get, adm[t], repeat(undefined)))
            if lhs != rhs:
                i = next(i for i, (y, z) in enumerate(zip(lhs, rhs)) if y != z)
                via, direct = (
                    f"{None if v is undefined else v!r} (defined={v is not undefined})" for v in (lhs[i], rhs[i])
                )
                add("axiom-iii", (s, t, adm[t][i]), f"θ_s∘θ_t gives {via} but θ_st gives {direct}")
                return full
    return full


def _image_moment_failure(
    action: FibredAction, lower: dict[str, frozenset[str]], s: str, xs: list[str], elt_set: set[str]
) -> tuple[tuple[str, str], str] | None:
    """The first x of ``xs`` (dom θ_s), in sorted order, whose image θ_s(x)
    breaks axiom ii, with the message; images that are not elements are
    skipped."""
    ic, moment = action.ic, action.moment
    ran = ic.ran_idem(s)
    for x in sorted(xs):
        y = action.theta.get((s, x))
        if y is None or y not in elt_set:
            continue
        if moment.obj[y] != ic.tgt(s):
            return (s, x), "image lies in the wrong fiber"
        if moment.idem[y] not in lower[ran]:
            return (s, x), "image idempotent does not sit below ss°"
        if moment.idem[x] == ic.dom_idem(s) and moment.idem[y] != ran:
            return (s, x), "image idempotent must equal ss° when x sits at s°s"
    return None


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
    isos = {s: PartialOrderIso(graph) for s, graph in graphs.items()}
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
    anything, the report is that of the full run.  The order test runs once
    per pair {s, s°} whose isos are mutually inverse, identity maps pass it
    untested, and between ideals it walks lower covers.
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
    ``scope`` is None).  The order test of Θ(s°) is skipped when Θ(s)
    passed it and Θ(s°) = Θ(s)⁻¹, as the inverse of an order isomorphism
    is one."""
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

    ordered: set[str] = set()  # the s whose Θ(s) passed the order test
    ideal = lru_cache(maxsize=None)(partial(is_ideal, poset))  # domains repeat
    for s in ic.morphisms:
        iso = sym.isos.get(s)
        if iso is None:
            add("iso-total", (s,), "morphism has no order isomorphism")
            continue
        dom, ran = iso.dom, iso.ran
        if scope is None or s in scope:
            if ic.inv(s) not in ordered or iso != sym.isos[ic.inv(s)].inverse():
                failure = order_iso_failure(poset, iso.pairs, ideal(dom) and ideal(ran))
                if failure is not None:
                    add("iso-order", (s,), f"not an order isomorphism: {failure!r}")
                    continue
            ordered.add(s)
        if not (dom <= sym.fibers.get(ic.src(s), frozenset())):
            add("iso-typing", (s,), "domain leaves the source fiber")
        if not (ran <= sym.fibers.get(ic.tgt(s), frozenset())):
            add("iso-typing", (s,), "range leaves the target fiber")
        if not ideal(dom) or not ideal(ran):
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
        if not _composes_to(sym.isos[s], sym.isos[t], sym.isos[st]):
            add("functor-composition", (s, t), "Θ(s)∘Θ(t) differs from Θ(st)")
    for s in ic.morphisms:
        if sym.isos[ic.inv(s)] != sym.isos[s].inverse():
            add("functor-inverse", (s,), "Θ(s°) differs from Θ(s)⁻¹")
    return full


def _composes_to(s: PartialOrderIso, t: PartialOrderIso, st: PartialOrderIso) -> bool:
    """Whether s∘t = st, for s and t functional: along the pairs (a, b) of
    t, s(b) and st(a) are defined together and equal, and st has no other
    pair."""
    via = list(map(s.point_map.get, t.point_map.values()))
    direct = list(map(st.point_map.get, t.point_map))
    return via == direct and len(st.pairs) == len(via) - via.count(None)


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

    The kernels: axiom i stops at its first witness, skips the order test
    of θ_{s°} once θ_s has passed with θ_{s°} its inverse, and compares
    lower covers between ideals; axiom iv compares two ``dict.get`` lists
    over D_{s°} ∩ D_{t°}; non-strict axiom vi, for s, t and st that passed
    axiom i, compares θ_s and θ_st∘θ_t⁻¹ over D_t ∩ D_{s°} and then only the
    sizes |D_{s°} ∩ D_t| and |D_s ∩ D_{st}|, since θ_s is injective.
    """
    full = ValidationReport()
    add = full.add_first
    ic, poset, strict = bundle.ic, bundle.poset, bundle.strict

    for s in ic.morphisms:
        if s not in bundle.maps:
            add("bundle-total", (s,), "morphism has no map")
    if full.violations:
        return full

    inv, maps, domains = ic.inv, bundle.maps, bundle.domains
    # the s whose θ_s passed axiom i; θ_{s°} = θ_s⁻¹ then needs no order test
    sound: set[str] = set()
    ideal = lru_cache(maxsize=None)(partial(is_ideal, poset))  # domains repeat
    for s in ic.morphisms:
        iso = maps[s]
        if inv(s) not in sound:
            failure = order_iso_failure(poset, iso.pairs, ideal(iso.dom) and ideal(domains[s]))
            if failure is not None:
                add("axiom-i", (s,), f"θ_s is not an order isomorphism: {failure!r}")
                break
        if not strict and not ideal(domains[s]):
            add("axiom-i", (s,), "D_s is not an ideal")
            break
        if maps[inv(s)] != iso.inverse():
            add("axiom-i", (s,), "θ_{s°} is not the inverse of θ_s")
            break
        sound.add(s)

    if strict:
        cover = frozenset().union(*(domains[e] for e in ic.idempotents()))
    else:
        cover = frozenset().union(
            *(domains[ic.identity_of(X)] for X in ic.objects)
        )
    if cover != frozenset(poset.elements):
        add("axiom-ii", (), "identity domains do not cover the poset")

    for e in ic.idempotents():
        if maps[e] != identity_iso(domains[e]):
            add("axiom-iii", (e,), "θ_e is not the identity of D_e")

    witness = _restriction_failure(bundle)
    if witness is not None:
        add("axiom-iv", *witness)

    for s in ic.morphisms:
        if not domains[s] <= domains[ic.ran_idem(s)]:
            add("axiom-v", (s,), "D_s leaves D_{ss°}")

    # with θ_s, θ_t and θ_st sound, θ_s(y) = θ_st(θ_t⁻¹ y) for every y in
    # D_t ∩ D_{s°} puts θ_s(D_{s°} ∩ D_t) inside D_s ∩ D_st, and then equal
    # sizes make the two equal; equal domains are interned, so each
    # intersection is taken once per distinct pair
    interned: dict[frozenset[str], frozenset[str]] = {}
    domains = {s: interned.setdefault(d, d) for s, d in domains.items()}
    meet = lru_cache(maxsize=None)(frozenset.intersection)
    for (s, t), st in ic.cat.table.items():
        if not strict and s in sound and t in sound and st in sound:
            common = meet(domains[t], domains[inv(s)])
            via = list(map(maps[s].point_map.__getitem__, common))
            direct = list(map(maps[st].point_map.get, map(maps[inv(t)].point_map.__getitem__, common)))
            if via == direct and len(common) == len(meet(domains[s], domains[st])):
                continue
        witness = _partial_composition_failure(bundle, s, t, st)
        if witness is not None:
            add("axiom-vi", *witness)
            break
    return full


def _restriction_failure(bundle: PartialActionBundle) -> tuple[tuple, str] | None:
    """The first parallel s < t, in morphism and then hom order, that breaks
    axiom iv, with its witness and message."""
    ic, maps = bundle.ic, bundle.maps
    composite = ic.cat.table.get
    for s in ic.morphisms:
        e = ic.ran_idem(s)
        for t in ic.cat.hom(ic.src(s), ic.tgt(s)):
            if s == t or composite((e, t)) != s:  # s ≤ t iff s = ss°·t
                continue
            ds, dt = maps[ic.inv(s)].ran, maps[ic.inv(t)].ran
            if not bundle.strict and not ds <= dt:
                return (s, t), "s ≤ t but D_{s°} is not inside D_{t°}"
            common = ds & dt
            lookup_t, lookup_s = maps[t].point_map, maps[s].point_map
            if list(map(lookup_t.get, common)) != list(map(lookup_s.get, common)):
                x = min(x for x in common if lookup_t.get(x) != lookup_s.get(x))
                return (s, t, x), "θ_t does not restrict to θ_s"
    return None


def _partial_composition_failure(
    bundle: PartialActionBundle, s: str, t: str, st: str
) -> tuple[tuple, str] | None:
    """Axiom vi at the composable pair (s, t): its witness and message, or
    None."""
    inv, maps = bundle.ic.inv, bundle.maps
    lookup_s, lookup_t, lookup_st = maps[s].point_map, maps[t].point_map, maps[st].point_map
    common = maps[inv(s)].ran & maps[t].ran  # D_{s°} ∩ D_t
    # points of D_{s°} outside θ_s are reported under axiom-i
    lhs = frozenset(lookup_s[x] for x in common if x in lookup_s)
    rhs = maps[s].ran & maps[st].ran
    if bundle.strict:
        if not lhs <= rhs:
            return (s, t), "θ_s(D_{s°} ∩ D_t) leaves D_s ∩ D_{st}"
    elif lhs != rhs:
        return (s, t), f"θ_s(D_{{s°}} ∩ D_t) = {sorted(lhs)} differs from D_s ∩ D_{{st}} = {sorted(rhs)}"
    back = maps[inv(t)].point_map
    for y in sorted(common):
        x = back.get(y)
        if x is None or lookup_t.get(x) != y:
            continue  # broken iso, reported under axiom-i
        via = lookup_s.get(y)
        direct = lookup_st.get(x)
        if bundle.strict:
            if via is not None and direct is not None and via != direct:
                return (s, t, x), "θ_s∘θ_t and θ_{st} disagree where both are defined"
        elif via != direct or via is None:
            return (s, t, x), f"θ_s∘θ_t gives {via!r} but θ_{{st}} gives {direct!r}"
    return None


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
    maps = {
        s: PartialOrderIso(p for p in bundle.maps[s].pairs if p[0] in q and p[1] in q)
        for s in ic.morphisms
    }
    return PartialActionBundle(ic, subposet(poset, q), maps)
