"""Convolution algebras of finite inverse categories.

The algebra of a finite category has the morphisms as basis; the product of
two basis elements is their composite when it exists and zero otherwise.
Coefficients stay symbolic: every statement here is encoded through data
that is independent of the base ring.  The composition table itself gives
every product (``InverseCategory.compose``, None meaning zero); this module
adds the block decomposition into matrix algebras over the isotropy groups
and the resulting dimension identity Σ n_e²·|C_e| = |morphisms|.

The group laws of an isotropy group and the closure of the idempotent
classes follow from the validated inverse category and are not checked
again here; the tests check them against brute-force oracles.

Morita certification compares the two block decompositions by the *set* of
group isomorphism classes appearing: matrix size and repeated blocks of the
same group do not affect the certificate, and a mismatch is reported as
INCONCLUSIVE rather than as a proof of inequivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import InverseCategory
from .errors import DimensionMismatch, SizeCapExceeded
from .limits import DEFAULT_ISO_CAP


# ---------------------------------------------------------------------------
# finite groups as explicit tables


@dataclass
class GroupTable:
    """A finite group given by its full multiplication table; the group
    laws are taken as given (``isotropy_group`` inherits them from a
    validated inverse category)."""

    elements: tuple[str, ...]
    table: dict[tuple[str, str], str]
    unit: str
    inverse: dict[str, str]

    def order_of(self, a: str) -> int:
        out, n = a, 1
        while out != self.unit:
            out = self.table[(out, a)]
            n += 1
        return n


def isotropy_group(ic: InverseCategory, e: str) -> GroupTable:
    """The group C_e = {s : ss° = e = s°s} under composition."""
    elems = ic.isotropy(e)
    table = {(a, b): ic.compose(a, b) for a in elems for b in elems}
    return GroupTable(elems, table, e, {a: ic.inv(a) for a in elems})


def group_iso(g1: GroupTable, g2: GroupTable, cap: int = DEFAULT_ISO_CAP) -> bool:
    """Exhaustive isomorphism search between two explicit group tables."""
    for g in (g1, g2):
        if len(g.elements) > cap:
            raise SizeCapExceeded(
                f"group of size {len(g.elements)} exceeds isomorphism cap {cap}",
                size=len(g.elements),
                cap=cap,
            )
    if len(g1.elements) != len(g2.elements):
        return False
    orders1 = sorted(g1.order_of(a) for a in g1.elements)
    orders2 = sorted(g2.order_of(a) for a in g2.elements)
    if orders1 != orders2:
        return False
    src = [a for a in g1.elements if a != g1.unit]
    candidates = {
        a: tuple(b for b in g2.elements if b != g2.unit and g2.order_of(b) == g1.order_of(a))
        for a in src
    }

    def extend(mapping: dict[str, str], used: set[str], i: int) -> bool:
        if i == len(src):
            return True
        a = src[i]
        for b in candidates[a]:
            if b in used:
                continue
            mapping[a] = b
            # check every product currently determined
            ok = True
            for x in mapping:
                for y in mapping:
                    xy = g1.table[(x, y)]
                    img = g2.table[(mapping[x], mapping[y])]
                    if xy in mapping and mapping[xy] != img:
                        ok = False
                        break
                    if xy == g1.unit and img != g2.unit:
                        ok = False
                        break
                if not ok:
                    break
            if ok and extend(mapping, used | {b}, i + 1):
                return True
            del mapping[a]
        return False

    return extend({g1.unit: g2.unit}, set(), 0)


# ---------------------------------------------------------------------------
# idempotent classes and the block decomposition


@dataclass
class IdempotentClass:
    """Idempotents joined by e = s°s, f = ss°, with their common group."""

    representative: str
    members: tuple[str, ...]
    group: GroupTable

    @property
    def multiplicity(self) -> int:
        return len(self.members)


def idempotent_classes(ic: InverseCategory) -> tuple[IdempotentClass, ...]:
    """Partition the idempotents by e ≅ f iff some s has s°s = e, ss° = f.

    One arrow witnesses each pair of the class: if s and t witness e ≅ f and
    f ≅ g, then ts witnesses e ≅ g.  So the class of e is the set of ss°
    over the s with s°s = e (s = e among them), and no closure is taken.
    Classes are sorted by (and represented by) their least member name; the
    group attached to a class is the isotropy group of the representative.
    """
    linked: dict[str, set[str]] = {}
    for s in ic.morphisms:
        linked.setdefault(ic.dom_idem(s), set()).add(ic.ran_idem(s))
    classes: list[IdempotentClass] = []
    seen: set[str] = set()
    for e in ic.idempotents():  # by name, so e is the least of its class
        if e not in seen:
            seen |= linked[e]
            classes.append(IdempotentClass(e, tuple(sorted(linked[e])), isotropy_group(ic, e)))
    return tuple(classes)


@dataclass
class Decomposition:
    """Blocks of the algebra: one matrix algebra over a group per class."""

    blocks: tuple[IdempotentClass, ...]

    @property
    def dimension(self) -> int:
        return sum(c.multiplicity ** 2 * len(c.group.elements) for c in self.blocks)


def decompose(ic: InverseCategory) -> Decomposition:
    """Block decomposition, with the dimension identity enforced.

    The algebra splits as one n_e × n_e matrix algebra over the group C_e per
    idempotent class, so Σ n_e²·|C_e| must equal the number of morphisms;
    a mismatch raises DIMENSION_MISMATCH and indicates invalid input.
    """
    dec = Decomposition(idempotent_classes(ic))
    if dec.dimension != len(ic.morphisms):
        raise DimensionMismatch(
            f"blocks sum to {dec.dimension} but the category has {len(ic.morphisms)} morphisms",
            expected=len(ic.morphisms),
            actual=dec.dimension,
        )
    return dec


# ---------------------------------------------------------------------------
# Morita certification


@dataclass
class MoritaVerdict:
    status: str  # "EQUIVALENT_CERTIFIED" | "INCONCLUSIVE"
    evidence: dict

    @property
    def certified(self) -> bool:
        return self.status == "EQUIVALENT_CERTIFIED"


def _distinct_groups(dec: Decomposition, cap: int) -> list[IdempotentClass]:
    out: list[IdempotentClass] = []
    for block in dec.blocks:
        if not any(group_iso(block.group, other.group, cap) for other in out):
            out.append(block)
    return out


def morita_check(
    a: InverseCategory, b: InverseCategory, cap: int = DEFAULT_ISO_CAP
) -> MoritaVerdict:
    """Certify Morita equivalence of the two convolution algebras.

    Both algebras decompose into matrix blocks over their isotropy groups;
    matrix algebras over the same group are Morita equivalent whatever their
    size, so the comparison merges sizes and multiplicities and asks whether
    the same set of group isomorphism classes appears on both sides.  A match
    certifies equivalence; anything else is INCONCLUSIVE.
    """
    dec_a, dec_b = decompose(a), decompose(b)
    left = _distinct_groups(dec_a, cap)
    right = _distinct_groups(dec_b, cap)
    pairing: list[tuple[str, str, int]] = []
    unmatched_left = []
    taken: set[int] = set()
    for cls in left:
        found = None
        for i, other in enumerate(right):
            if i not in taken and group_iso(cls.group, other.group, cap):
                found = i
                break
        if found is None:
            unmatched_left.append(cls.representative)
        else:
            taken.add(found)
            pairing.append(
                (cls.representative, right[found].representative, len(cls.group.elements))
            )
    unmatched_right = [
        right[i].representative for i in range(len(right)) if i not in taken
    ]
    if not unmatched_left and not unmatched_right:
        return MoritaVerdict("EQUIVALENT_CERTIFIED", {"pairing": pairing})
    return MoritaVerdict(
        "INCONCLUSIVE",
        {
            "pairing": pairing,
            "unmatched_left": unmatched_left,
            "unmatched_right": unmatched_right,
        },
    )
