"""The three workloads: ops, their inputs, and the correctness gate.

An op is one call into the library.  ``Op.call`` runs inside the timed
region; ``passes`` runs after it, outside the timing, so a fast wrong
answer is counted as a failure instead of a speed-up.  Each workload's
set-up function takes the freshly imported ``invcat`` package, a seeded
``random.Random`` and a scratch directory inside the checkout, and returns
a ``Workload``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import inputs as gen

VARIANTS = ("global", "partial", "strict_global", "strict_partial")

# Error cases that the documented behaviour (exit 2 with a typed error) and
# the seed disagree on; they count as failed until the defect is fixed.
KNOWN_DEFECTS = (
    "cli:embedding_list_values",
    "cli:duplicate_json_keys",
    "cli:max_elements_cauchy",
    "cli:max_elements_decompose",
    "cli:max_elements_morita",
    "cli:max_elements_enlargement",
)

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def digest(canon) -> str:
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Op:
    """One library call.  ``fingerprint`` maps the result to a digest that
    must equal the one recorded at the seed; ``law`` is an exact property
    (closed-form size, validator verdict, oracle answer) that must hold."""

    name: str
    call: Callable[[dict], object]
    fingerprint: Callable[[object], str] | None = None
    law: Callable[[object], bool] | None = None
    keep: str | None = None


def passes(op: Op, result, expected: dict) -> bool:
    if isinstance(result, Exception):
        return False
    try:
        if op.fingerprint is not None and op.fingerprint(result) != expected.get(op.name):
            return False
        return op.law is None or bool(op.law(result))
    except Exception:  # a malformed result is a failed op, not a crash
        return False


@dataclass
class Workload:
    """Ops grouped into units that run back to back (a chain hands results on
    through ``state``).  A round runs every unit once, in an order shuffled by
    the seeded ``rng``, so the samples of each op spread over the whole run;
    whole rounds keep the op mix fixed.  No unit is weighted: the repository
    records no usage profile to weight them by."""

    units: list[list[Op]]
    rng: random.Random
    state: dict = field(default_factory=dict)

    @property
    def ops(self) -> list[Op]:
        return [op for unit in self.units for op in unit]

    def rounds(self):
        while True:
            order = list(self.units)
            self.rng.shuffle(order)
            yield [op for unit in order for op in unit]


# ---------------------------------------------------------------------------
# canonical forms (independent of declaration order, hence of the seed)


def canon_category(ic) -> dict:
    cat = ic.cat
    return {
        "objects": sorted(cat.objects),
        "morphisms": sorted([m, cat.src[m], cat.tgt[m]] for m in cat.morphisms),
        "identities": sorted(cat.identity.items()),
        "table": sorted([g, f, h] for (g, f), h in cat.table.items()),
        "inverse": sorted(ic.inverse.items()),
    }


def canon_poset(poset) -> dict:
    return {"elements": sorted(poset.elements), "relation": sorted(poset.relation)}


def canon_bundle(bundle) -> dict:
    return {
        **canon_poset(bundle.poset),
        "domains": sorted([s, sorted(d)] for s, d in bundle.domains.items()),
        "maps": sorted([s, list(iso.pairs)] for s, iso in bundle.maps.items()),
    }


def canon_table(elements, table) -> dict:
    return {"elements": sorted(elements), "table": sorted([a, b, c] for (a, b), c in table.items())}


def fp(canon_fn):
    return lambda result: digest(canon_fn(result))


# ---------------------------------------------------------------------------
# construct: library constructions on a ladder of inputs


def construct_inputs(invcat, rng) -> dict:
    """name -> (inverse category, R-class sizes or None)."""
    cats = {
        "I2": (gen.symmetric_inverse_monoid(invcat, 2, rng), gen.symmetric_inverse_r_classes(2)),
        "I3": (gen.symmetric_inverse_monoid(invcat, 3, rng), gen.symmetric_inverse_r_classes(3)),
        "I4": (gen.symmetric_inverse_monoid(invcat, 4, rng), gen.symmetric_inverse_r_classes(4)),
        "B(Z2,2)": (gen.brandt_groupoid(invcat, 2, 2, rng), gen.brandt_r_classes(2, 2)),
        "B(Z2,3)": (gen.brandt_groupoid(invcat, 2, 3, rng), gen.brandt_r_classes(2, 3)),
    }
    for n in (4, 5, 6, 8):
        cats[f"Z{n}"] = (gen.cyclic_group(invcat, n, rng), gen.brandt_r_classes(n, 1))
    cats["Iic(antichain3)"] = (gen.iic(invcat, "antichain", 3, rng), None)
    return cats


def build_construct(invcat, rng) -> Workload:
    cats = construct_inputs(invcat, rng)
    ops: list[Op] = []

    for base in ("I2", "I3", "Z4", "Z5", "Z6", "Z8", "B(Z2,2)", "B(Z2,3)"):
        ic, rsizes = cats[base]
        for variant in VARIANTS:
            size = gen.bernoulli_size(rsizes, pointed=variant in ("partial", "strict_partial"))
            ops.append(
                Op(
                    f"szendrei:{base}:{variant}",
                    lambda st, ic=ic, v=variant: invcat.szendrei(ic, v),
                    fp(lambda sz: canon_category(sz.ic)),
                    lambda sz, size=size: len(sz.ic.objects) == size,
                )
            )

    for kind, n in (("chain", 4), ("chain", 6), ("antichain", 2), ("antichain", 3)):
        poset = gen.order_poset(invcat, kind, n, rng)
        size = gen.iic_size(kind, n)
        ops.append(
            Op(
                f"build_Iic:{kind}{n}",
                lambda st, p=poset: invcat.build_Iic(p),
                fp(canon_category),
                lambda ic, size=size: (len(ic.objects), len(ic.morphisms)) == size,
            )
        )

    # I4 is left out of cauchy_completion: 3 s and a million-pair table per
    # call, whose garbage-collection cost spreads into the neighbouring ops
    for base in ("I2", "I3", "B(Z2,3)", "Iic(antichain3)"):
        ic = cats[base][0]
        ops.append(
            Op(f"cauchy_completion:{base}", lambda st, ic=ic: invcat.cauchy_completion(ic), fp(lambda cc: canon_category(cc.ic)))
        )
    for base in ("I3", "B(Z2,3)", "Iic(antichain3)", "I4"):
        ic = cats[base][0]
        ops.append(
            Op(
                f"restriction_groupoid:{base}",
                lambda st, ic=ic: invcat.restriction_groupoid(ic),
                fp(canon_category),
                lambda g, n=len(ic.morphisms): len(g.morphisms) == n,  # one arrow per morphism
            )
        )
    for base in ("I3", "B(Z2,3)", "Iic(antichain3)", "Z8", "I4"):
        ic = cats[base][0]
        ops.append(
            Op(
                f"decompose:{base}",
                lambda st, ic=ic: invcat.decompose(ic),
                fp(lambda dec: [[c.representative, c.multiplicity, list(c.group.elements)] for c in dec.blocks]),
                lambda dec, n=len(ic.morphisms): dec.dimension == n,
            )
        )

    # the action round trip; each step reads the previous step's result
    chains = []
    for base in ("I3", "B(Z2,3)"):
        ic, rsizes = cats[base]
        full, pointed = gen.bernoulli_size(rsizes, False), gen.bernoulli_size(rsizes, True)
        k = f"{base}:"  # prefix of the intermediate results kept in the round state
        ok = lambda report: report.ok  # noqa: E731
        chains.append([
            Op(
                "bernoulli_global:" + base,
                lambda st, ic=ic: invcat.bernoulli_global(ic),
                fp(lambda a: {**canon_poset(a.poset), "theta": sorted([s, x, y] for (s, x), y in a.theta.items())}),
                lambda a, n=full: len(a.poset.elements) == n,
                keep=k + "fibred",
            ),
            Op("validate_fibred:" + base, lambda st, k=k: invcat.validate_fibred(st[k + "fibred"]), law=ok),
            Op(
                "fibred_to_symmetry:" + base,
                lambda st, k=k: invcat.fibred_to_symmetry(st[k + "fibred"]),
                fp(lambda s: {"fibers": sorted([x, sorted(f)] for x, f in s.fibers.items()), "isos": sorted([m, list(i.pairs)] for m, i in s.isos.items())}),
                keep=k + "symmetry",
            ),
            Op("validate_symmetry:" + base, lambda st, k=k: invcat.validate_symmetry(st[k + "symmetry"]), law=ok),
            Op("symmetry_to_partial:" + base, lambda st, k=k: invcat.symmetry_to_partial(st[k + "symmetry"]), fp(canon_bundle), keep=k + "converted"),
            Op("validate_partial:converted:" + base, lambda st, k=k: invcat.validate_partial(st[k + "converted"]), law=ok),
            Op(
                "bernoulli_partial:" + base,
                lambda st, ic=ic: invcat.bernoulli_partial(ic),
                fp(canon_bundle),
                lambda b, n=pointed: len(b.poset.elements) == n,
                keep=k + "partial",
            ),
            Op("validate_partial:direct:" + base, lambda st, k=k: invcat.validate_partial(st[k + "partial"]), law=ok),
        ])

    # inner pointed expansions of Z_n against the directly enumerated prefix expansion
    for n in (5, 6):
        group = cats[f"Z{n}"][0]
        pointed = invcat.szendrei(group, "partial")
        inner = invcat.inner_expansion(pointed, group.objects[0])
        size = gen.prefix_expansion_size(n)
        classical = digest(canon_table(*invcat.classical_group_expansion(group)))
        ops += [
            Op(
                f"inner_expansion:Z{n}",
                lambda st, sz=pointed, x=group.objects[0]: invcat.inner_expansion(sz, x),
                fp(lambda ie: canon_table(ie.elements, ie.table)),
                # equal to the directly enumerated prefix expansion
                lambda ie, size=size, c=classical: len(ie.elements) == size
                and digest(canon_table(ie.elements, ie.table)) == c,
            ),
            Op(
                f"validate_inverse_semigroup:Z{n}",
                lambda st, ie=inner: invcat.validate_inverse_semigroup(ie.elements, ie.table),
                law=lambda report: report.ok,
            ),
            Op(
                f"classical_group_expansion:Z{n}",
                lambda st, g=group: invcat.classical_group_expansion(g),
                fp(lambda out: canon_table(*out)),
                lambda out, size=size: len(out[0]) == size,
            ),
        ]
    return Workload([[op] for op in ops] + chains, rng)


# ---------------------------------------------------------------------------
# query: a seeded stream of point queries on prebuilt structures


class Index:
    """Brute-force answers for one inverse category, built from its tables."""

    def __init__(self, ic) -> None:
        cat, inv = ic.cat, ic.inverse
        table = cat.table
        self.ic = ic
        self.dom = {m: table[(inv[m], m)] for m in cat.morphisms}
        self.ran = {m: table[(m, inv[m])] for m in cat.morphisms}
        self.idems = sorted(m for m in cat.morphisms if table.get((m, m)) == m)
        self.by_dom, self.by_ran, self.by_src, self.by_tgt, self.hom = {}, {}, {}, {}, {}
        for m in cat.morphisms:
            self.by_dom.setdefault(self.dom[m], []).append(m)
            self.by_ran.setdefault(self.ran[m], []).append(m)
            self.by_src.setdefault(cat.src[m], []).append(m)
            self.by_tgt.setdefault(cat.tgt[m], []).append(m)
            self.hom.setdefault((cat.src[m], cat.tgt[m]), []).append(m)

    def leq(self, s: str, t: str) -> bool:
        """Natural order: s ≤ t iff s and t are parallel and s = t·s°s."""
        cat = self.ic.cat
        return cat.src[s] == cat.src[t] and cat.tgt[s] == cat.tgt[t] and cat.table.get((t, self.dom[s])) == s


class SzOracle:
    """Brute-force answers for an expansion, from the carrier and the origin."""

    def __init__(self, sz, base: Index) -> None:
        self.sz, self.base, self.own = sz, base, Index(sz.ic)
        self.relation = sz.carrier.poset.relation
        # arrows grouped by the object their underlying morphism ends at, and
        # idempotent arrows by the object of their underlying idempotent
        self.ending_at: dict[str, list[str]] = {}
        for a, (_, s) in sz.arrows.items():
            self.ending_at.setdefault(sz.origin.tgt(s), []).append(a)
        self.idems_at: dict[str, list[str]] = {}
        for a in self.own.idems:
            self.idems_at.setdefault(sz.origin.src(sz.arrows[a][1]), []).append(a)

    def product_leq(self, a: str, b: str) -> bool:
        (ka, s), (kb, t) = self.sz.arrows[a], self.sz.arrows[b]
        return (ka, kb) in self.relation and self.base.leq(s, t)

    def _name(self, members: set[str], s: str) -> str:
        return "({" + ",".join(sorted(members)) + "}|" + s + ")"

    def pseudo(self, a: str, b: str) -> str:
        (ka, s), (kb, t) = self.sz.arrows[a], self.sz.arrows[b]
        elements, table, inv = self.sz.carrier.elements, self.base.ic.cat.table, self.base.ic.inverse
        conj = table[(table[(s, elements[kb].idem)], inv[s])]
        lead = table[(elements[ka].idem, s)]
        members = {table[(conj, m)] for m in elements[ka].members}
        members |= {table[(lead, m)] for m in elements[kb].members}
        return self._name(members, table[(s, t)])

    def wedge(self, a: str, b: str) -> str:
        (ka, i), (kb, j) = self.sz.arrows[a], self.sz.arrows[b]
        elements, table = self.sz.carrier.elements, self.base.ic.cat.table
        members = {table[(elements[kb].idem, m)] for m in elements[ka].members}
        members |= {table[(elements[ka].idem, m)] for m in elements[kb].members}
        return self._name(members, table[(i, j)])


def _sorted_eq(result, expected) -> bool:
    return sorted(result) == sorted(expected)


def query_structures(invcat, rng) -> tuple[dict, dict]:
    bases = {
        "I3": gen.symmetric_inverse_monoid(invcat, 3, rng),
        "B(Z2,3)": gen.brandt_groupoid(invcat, 2, 3, rng),
        "Iic(antichain3)": gen.iic(invcat, "antichain", 3, rng),
    }
    expansions = {(b, v): invcat.szendrei(bases[b], v) for b in ("I3", "B(Z2,3)") for v in VARIANTS}
    return bases, expansions


# every query kind gets the same count in the stream: neither the paper nor
# the repository gives a usage mix to weight them by
QUERY_KINDS = (
    "natural_leq",
    "product_order_leq",
    "pseudo_product",
    "wedge",
    "restriction",
    "corestriction",
    "isotropy",
    "r_class",
    "l_class",
    "star",
    "idempotents_at",
    "hom",
    "generalized_inverses",
    "relation_classes",
)
STREAM_LENGTH = 5000


def build_query(invcat, rng, expected: dict) -> Workload:
    bases, expansions = query_structures(invcat, rng)
    for name, ic in bases.items():
        if digest(canon_category(ic)) != expected["query"][name]:
            raise RuntimeError(f"query input {name} differs from the recorded structure")
    for (b, v), sz in expansions.items():
        if digest(canon_category(sz.ic)) != expected["query"][f"{b}:{v}"]:
            raise RuntimeError(f"expansion {b}:{v} differs from the recorded structure")
    base_index = {name: Index(ic) for name, ic in bases.items()}
    oracles = {key: SzOracle(sz, base_index[key[0]]) for key, sz in expansions.items()}
    indexes = list(base_index.values()) + [o.own for o in oracles.values()]
    sz_keys = sorted(oracles)
    below: dict[tuple, list[str]] = {}

    def idems_below(key, oracle: SzOracle, inner: str) -> list[str]:
        if (key, inner) not in below:
            below[(key, inner)] = [x for x in oracle.own.idems if oracle.product_leq(x, inner)]
        return below[(key, inner)]

    # fixed counts per (kind, structure); only arguments and order are drawn,
    # so the cost of a stream does not depend on the seed
    targets = {kind: indexes for kind in QUERY_KINDS}
    targets["relation_classes"] = list(base_index.values())
    for kind in ("product_order_leq", "pseudo_product", "wedge", "restriction", "corestriction"):
        targets[kind] = sz_keys
    per_kind = STREAM_LENGTH // len(QUERY_KINDS)
    plan = [(kind, targets[kind][i % len(targets[kind])]) for kind in QUERY_KINDS for i in range(per_kind)]
    # a session queries one structure at a time: the stream visits the
    # structures in seeded order, with each structure's queries shuffled
    def structure(target):
        return id(target.ic if isinstance(target, Index) else expansions[target].ic)

    blocks: dict[int, list] = {}
    for item in plan:
        blocks.setdefault(structure(item[1]), []).append(item)
    plan = []
    for block in rng.sample(list(blocks.values()), len(blocks)):
        rng.shuffle(block)
        plan += block
    ops: list[Op] = []
    for kind, target in plan:
        name = f"query:{kind}"
        if kind in ("natural_leq", "generalized_inverses", "isotropy", "r_class", "l_class", "star", "idempotents_at", "hom"):
            ix = target
            ic = ix.ic
            mors = ic.morphisms
            if kind == "natural_leq":
                s = rng.choice(mors)
                t = rng.choice(ix.hom[(ic.src(s), ic.tgt(s))])
                ops.append(Op(name, lambda st, ic=ic, s=s, t=t: invcat.natural_leq(ic, s, t), law=lambda r, ix=ix, s=s, t=t: r is ix.leq(s, t)))
            elif kind == "generalized_inverses":
                s = rng.choice(mors)
                ops.append(
                    Op(name, lambda st, c=ic.cat, s=s: invcat.generalized_inverses(c, s), law=lambda r, v=(ic.inverse[s],): tuple(r) == v)
                )
            elif kind in ("isotropy", "r_class", "l_class"):
                e = rng.choice(ix.idems)
                if kind == "isotropy":
                    want = tuple(sorted(m for m in ix.by_dom[e] if ix.ran[m] == e))
                    ops.append(Op(name, lambda st, ic=ic, e=e: ic.isotropy(e), law=lambda r, w=want: tuple(r) == w))
                else:
                    bucket = (ix.by_ran if kind == "r_class" else ix.by_dom)[e]
                    ops.append(Op(name, lambda st, ic=ic, k=kind, e=e: getattr(ic, k)(e), law=lambda r, w=bucket: _sorted_eq(r, w)))
            elif kind == "star":
                x = rng.choice(ic.objects)
                ops.append(Op(name, lambda st, ic=ic, x=x: ic.star(x), law=lambda r, w=ix.by_src.get(x, []): _sorted_eq(r, w)))
            elif kind == "idempotents_at":
                x = rng.choice(ic.objects)
                want = [e for e in ix.idems if ic.src(e) == x]
                ops.append(Op(name, lambda st, ic=ic, x=x: ic.idempotents_at(x), law=lambda r, w=want: _sorted_eq(r, w)))
            else:
                x, y = rng.choice(ic.objects), rng.choice(ic.objects)
                ops.append(Op(name, lambda st, c=ic.cat, x=x, y=y: c.hom(x, y), law=lambda r, w=ix.hom.get((x, y), []): _sorted_eq(r, w)))
        elif kind == "relation_classes":
            ix = target

            def law(rc, ix=ix) -> bool:
                return (
                    rc.l_classes == tuple(tuple(sorted(v)) for _, v in sorted(ix.by_dom.items()))
                    and rc.r_classes == tuple(tuple(sorted(v)) for _, v in sorted(ix.by_ran.items()))
                    and rc.star == {x: tuple(sorted(ix.by_src.get(x, []))) for x in ix.ic.objects}
                    and rc.costar == {x: tuple(sorted(ix.by_tgt.get(x, []))) for x in ix.ic.objects}
                )

            ops.append(Op(name, lambda st, ic=ix.ic: invcat.relation_classes(ic), law=law))
        else:
            key = target
            sz, o = expansions[key], oracles[key]
            arrows = sz.ic.morphisms
            a = rng.choice(arrows)
            if kind == "product_order_leq":
                b = rng.choice(o.own.hom[(sz.ic.src(a), sz.ic.tgt(a))]) if rng.random() < 0.5 else rng.choice(arrows)
                ops.append(Op(name, lambda st, sz=sz, a=a, b=b: invcat.product_order_leq(sz, a, b), law=lambda r, o=o, a=a, b=b: r is o.product_leq(a, b)))
            elif kind == "pseudo_product":
                b = rng.choice(o.ending_at[sz.origin.src(sz.arrows[a][1])])
                ops.append(Op(name, lambda st, sz=sz, a=a, b=b: invcat.pseudo_product(sz, a, b), law=lambda r, o=o, a=a, b=b: r == o.pseudo(a, b)))
            elif kind == "wedge":
                a = rng.choice(o.own.idems)
                x = sz.origin.src(sz.arrows[a][1])
                b = rng.choice(o.idems_at[x])
                ops.append(Op(name, lambda st, sz=sz, a=a, b=b: invcat.wedge(sz, a, b), law=lambda r, o=o, a=a, b=b: r == o.wedge(a, b)))
            else:
                side = o.own.dom if kind == "restriction" else o.own.ran
                x = rng.choice(idems_below(key, o, side[a]))
                ops.append(
                    Op(
                        name,
                        lambda st, k=kind, sz=sz, a=a, x=x: getattr(invcat, k)(sz, a, x),
                        law=lambda r, o=o, a=a, x=x, side=side: o.product_leq(r, a) and side[r] == x,
                    )
                )
    return Workload([ops], rng)


# ---------------------------------------------------------------------------
# cli: in-process invcat.cli.main over spec files written at set-up


@dataclass
class Outcome:
    code: int | str  # the exit code, or the name of an exception main raised
    stdout: str
    emitted: str | None


def normalise_report(stdout: str, tmp: str, root: str) -> dict:
    """Parse a report, hide the scratch paths and verify the file digests it
    quotes against the files themselves (spec files are seed-ordered)."""
    report = json.loads(stdout)

    def check(path: str, quoted: str) -> str:
        with open(path, "rb") as handle:
            return "sha256-ok" if hashlib.sha256(handle.read()).hexdigest() == quoted else "sha256-mismatch"

    def hide(path: str) -> str:
        return path.replace(tmp, "<tmp>").replace(root, "<root>")

    if "inputs" in report:
        report["inputs"] = {hide(p): check(p, h) for p, h in report["inputs"].items()}
    emitted = report.get("result", {}).get("emitted")
    if emitted:
        emitted["sha256"] = check(emitted["path"], emitted["sha256"])
        emitted["path"] = hide(emitted["path"])
    return report


def canon_spec(path: str) -> dict:
    """An emitted spec file with declaration order sorted away."""
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    spec["objects"] = sorted(spec["objects"])
    spec["morphisms"] = sorted(spec["morphisms"], key=lambda m: m["name"])
    return spec


def error_law(code: str | None):
    """Documented behaviour for input errors: exit 2 and a typed error."""

    def law(out: Outcome) -> bool:
        if out.code != 2:
            return False
        error = json.loads(out.stdout)["error"]
        return isinstance(error["code"], str) and (code is None or error["code"] == code)

    return law


def write_cli_inputs(invcat, rng, tmp: str) -> dict[str, str]:
    """Spec files for the cli workload; returns name -> path."""
    specs = os.path.join(tmp, "specs")
    os.makedirs(os.path.join(tmp, "emit"), exist_ok=True)
    os.makedirs(specs, exist_ok=True)
    cats = {
        "i2": gen.symmetric_inverse_monoid(invcat, 2, rng),
        "i3": gen.symmetric_inverse_monoid(invcat, 3, rng),
        "z4": gen.cyclic_group(invcat, 4, rng),
        "z8": gen.cyclic_group(invcat, 8, rng),
        "b22": gen.brandt_groupoid(invcat, 2, 2, rng),
        "b23": gen.brandt_groupoid(invcat, 2, 3, rng),
        "a3": gen.iic(invcat, "antichain", 3, rng),
    }
    for base in ("i2", "b22"):
        for variant in ("strict_global", "strict_partial"):
            cats[f"{base}_{variant}"] = invcat.szendrei(cats[base], variant).ic
    paths = {}
    for name, ic in cats.items():
        paths[name] = os.path.join(specs, f"{name}.json")
        invcat.save_category(paths[name], ic.cat, ic.inverse)
    extra = {
        "broken": '{"invcat-spec": 1,\n  "objects": [}',
        "undeclared": json.dumps(
            {"invcat-spec": 1, "objects": ["*"], "morphisms": [{"name": "1", "src": "*", "tgt": "*"}],
             "identities": {"*": "1"}, "composition": [{"left": "1", "right": "1", "result": "2"}]}
        ),
        # two identities for the same object: the second silently wins at the seed
        "duplicate_keys": '{"invcat-spec": 1, "objects": ["*"], "morphisms": [{"name": "1", "src": "*", "tgt": "*"}],'
        ' "identities": {"*": "1", "*": "1"}, "composition": [{"left": "1", "right": "1", "result": "1"}]}',
        "embedding_list": '{"objects": {"*": ["X"]}, "morphisms": {"1": ["1X"]}}',
    }
    for name, text in extra.items():
        paths[name] = os.path.join(specs, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            handle.write(text)
    paths["missing"] = os.path.join(specs, "missing.json")
    return paths


def cli_cases(paths: dict[str, str], tmp: str, root: str) -> list[tuple[str, list[str], str | None | bool]]:
    """(case, argv, expectation): True means 'matches the recorded digest';
    a string or None means 'exit 2 with that typed error code (any if None)'."""
    p = paths
    demo = {n: os.path.join(root, "demos", "data", f"{n}.json") for n in ("t1", "z2", "g2", "i2", "t1_into_g2", "t1_into_z2")}
    cases: list[tuple[str, list[str], str | None | bool]] = []
    for name in ("i2", "i3", "z8", "b23", "a3"):
        cases.append((f"validate:{name}", ["validate", p[name]], True))
    for name in ("t1", "z2", "g2", "i2"):
        cases.append((f"validate:demo_{name}", ["validate", demo[name]], True))
    # Z8 gets only the pointed commands: its full variants repeat the I3
    # path at 1.3 s each, which the run length cannot afford
    for name in ("i2", "i3", "z8", "b23"):
        if name != "z8":
            cases.append((f"bernoulli:{name}", ["bernoulli", p[name]], True))
        cases.append((f"bernoulli:{name}:circ", ["bernoulli", p[name], "--circ"], True))
        for variant in ("global", "partial", "strict-global", "strict-partial"):
            if name == "z8" and "partial" not in variant:
                continue
            case = f"expand:{name}:{variant}"
            out = os.path.join(tmp, "emit", f"{name}-{variant}.json")
            cases.append((case, ["expand", p[name], "--variant", variant, "--emit-spec", out], True))
    cases.append(("expand:i2:global:inner", ["expand", p["i2"], "--variant", "global", "--inner", "*"], True))
    cases.append(("expand:z4:partial:inner", ["expand", p["z4"], "--variant", "partial", "--inner", "o0"], True))
    for name in ("i2", "i3", "z8", "b23", "a3"):
        cases.append((f"cauchy:{name}", ["cauchy", p[name]], True))
        if name != "a3":  # a3 is validated and completed; more would not fit
            cases.append((f"decompose:{name}", ["decompose", p[name]], True))
    for a, b in (("i3", "i2"), ("b23", "z8")):
        cases.append((f"morita:{a}:{b}", ["morita", p[a], p[b]], True))
    cases.append(("morita:demo_g2:demo_t1", ["morita", demo["g2"], demo["t1"]], True))
    for base in ("i2", "b22"):
        cases.append((f"enlargement:{base}_strict", ["enlargement", p[f"{base}_strict_partial"], p[f"{base}_strict_global"]], True))
    cases.append(("enlargement:demo_t1_g2", ["enlargement", demo["t1"], demo["g2"], "--embedding", demo["t1_into_g2"]], True))
    cases.append(("enlargement:demo_t1_z2", ["enlargement", demo["t1"], demo["z2"], "--embedding", demo["t1_into_z2"]], True))
    # documented input errors
    cases += [
        ("cli:missing_file", ["validate", p["missing"]], "IO_ERROR"),
        ("cli:broken_json", ["validate", p["broken"]], "PARSE_ERROR"),
        ("cli:undeclared_name", ["validate", p["undeclared"]], "UNDECLARED_NAME"),
        ("cli:max_elements_expand", ["expand", p["i3"], "--max-elements", "10"], "SIZE_CAP_EXCEEDED"),
        ("cli:max_elements_bernoulli", ["bernoulli", p["b23"], "--max-elements", "5"], "SIZE_CAP_EXCEEDED"),
        ("cli:inner_unknown_object", ["expand", p["i2"], "--variant", "partial", "--inner", "nosuch"], "UNDECLARED_NAME"),
        # the known defects (ROADMAP item 2), expected to fail until fixed
        ("cli:embedding_list_values", ["enlargement", demo["t1"], demo["g2"], "--embedding", p["embedding_list"]], None),
        ("cli:duplicate_json_keys", ["validate", p["duplicate_keys"]], "PARSE_ERROR"),
        ("cli:max_elements_cauchy", ["cauchy", p["i3"], "--max-elements", "1"], "SIZE_CAP_EXCEEDED"),
        ("cli:max_elements_decompose", ["decompose", p["i3"], "--max-elements", "1"], "SIZE_CAP_EXCEEDED"),
        ("cli:max_elements_morita", ["morita", p["i3"], p["i2"], "--max-elements", "1"], "SIZE_CAP_EXCEEDED"),
        (
            "cli:max_elements_enlargement",
            ["enlargement", p["i2_strict_partial"], p["i2_strict_global"], "--max-elements", "1"],
            "SIZE_CAP_EXCEEDED",
        ),
    ]
    return cases


def run_cli(main, argv: list[str], tracer=None) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: int | str = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught traceback is an outcome to gate
            code = type(exc).__name__
    text = out.getvalue()
    if tracer is not None:
        tracer.counts["cli.stdout_bytes"] += len(text.encode())
    emitted = argv[argv.index("--emit-spec") + 1] if "--emit-spec" in argv else None
    return Outcome(code, text, emitted)


def cli_fingerprint(tmp: str, root: str):
    def fingerprint(out: Outcome) -> str:
        report = normalise_report(out.stdout, tmp, root)
        emitted = digest(canon_spec(out.emitted)) if out.emitted else None
        return digest({"code": out.code, "report": report, "emitted": emitted})

    return fingerprint


def build_cli(invcat, rng, tmp: str, root: str) -> Workload:
    paths = write_cli_inputs(invcat, rng, tmp)
    fingerprint = cli_fingerprint(tmp, root)
    ops = []
    for case, argv, expect in cli_cases(paths, tmp, root):
        call = lambda st, argv=argv: run_cli(invcat.cli.main, argv, st.get("tracer"))  # noqa: E731
        if expect is True:
            ops.append(Op(case, call, fingerprint))
        else:
            ops.append(Op(case, call, law=error_law(expect)))
    return Workload([[op] for op in ops], rng)
