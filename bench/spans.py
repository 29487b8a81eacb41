"""Per-module spans for the traced benchmark run.

The library is not edited: ``install`` replaces each listed function with a
recording wrapper at every place the ``invcat`` package binds it (the
defining module, each module that imported it by name, and the package
namespace), so calls between modules are seen too.  Methods are wrapped on
their class.  Spans stay in memory as flat arrays; self time is computed
after the run from the parent links.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from collections import Counter

# Functions that get a span, named after the function; SHARED puts several
# functions under one span name.
SPANS = (
    "core.validate_category",
    "core.find_inverse_structure",
    "core.FiniteCategory.build",
    "core.natural_leq",
    "core.idempotents_at",
    "core.FiniteCategory.hom",
    "core.InverseCategory.isotropy",
    "core.InverseCategory.r_class",
    "core.InverseCategory.l_class",
    "core.InverseCategory.star",
    "core.InverseCategory.costar",
    "core.InverseCategory.idempotents_at",
    "poset.poset_from_function",
    "poset.build_Iic",
    "bernoulli.build_bernoulli",
    "bernoulli.bernoulli_global",
    "bernoulli.bernoulli_partial",
    "actions.validate_fibred",
    "actions.validate_partial",
    "actions.validate_symmetry",
    "actions.fibred_to_symmetry",
    "actions.symmetry_to_partial",
    "expansion.szendrei",
    "expansion.semidirect_product",
    "expansion.product_order_leq",
    "expansion.pseudo_product",
    "expansion.wedge",
    "expansion.restriction",
    "expansion.corestriction",
    "expansion.inner_expansion",
    "expansion.validate_inverse_semigroup",
    "expansion.classical_group_expansion",
    "completion.cauchy_completion",
    "completion.restriction_groupoid",
    "completion.enlargement_check",
    "completion.completion_inclusion",
    "completion.equivalence_check",
    "algebra.decompose",
    "algebra.idempotent_classes",
    "algebra.morita_check",
    "specfile.load_category",
    "specfile.save_category",
    "cli.main",
)
SHARED = {
    "core.idempotents_at": "core.index_queries",
    "core.FiniteCategory.hom": "core.index_queries",
    "core.InverseCategory.isotropy": "core.index_queries",
    "core.InverseCategory.r_class": "core.index_queries",
    "core.InverseCategory.l_class": "core.index_queries",
    "core.InverseCategory.star": "core.index_queries",
    "core.InverseCategory.costar": "core.index_queries",
    "core.InverseCategory.idempotents_at": "core.index_queries",
    "expansion.corestriction": "expansion.restriction",
}

# Hot helpers whose calls are counted without a span, so their time stays
# in the caller's self time.
COUNTED = (
    "core.generalized_inverses",
    "poset.order_isos_between",
    "poset.compose_partial_isos",
    "algebra.isotropy_group",
    "algebra.group_iso",
)

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def per_layer_units() -> dict[str, str]:
    """name -> unit of every per-layer metric, in the order of BENCHMARK.json."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


class Tracer:
    """Span recorder: one flat record per call, linked to its caller's span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.selfcheck_s = 0.0
        self._checked: set[int] = set()
        self._carriers: set[tuple[int, bool]] = set()
        self.carriers = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.current = idx
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.current = self.parent[idx]

    def end_op(self) -> None:
        """Called between ops: carriers are counted per op."""
        self.carriers += len(self._carriers)
        self._carriers.clear()

    # -- counters read off arguments and results --------------------------

    def observe(self, key: str, args: tuple, result, idx: int) -> None:
        counts = self.counts
        if key == "core.FiniteCategory.build":
            counts["core.composable_pairs_out"] += len(result.table)
        elif key == "poset.poset_from_function":
            counts["poset.relation_pairs_out"] += len(result.relation)
        elif key == "bernoulli.build_bernoulli":
            counts["bernoulli.carrier_elements_out"] += len(result.elements)
            self._carriers.add((id(result.ic), result.pointed))
        elif key == "expansion.semidirect_product":
            ic, arrows = result
            counts["expansion.semidirect_product.arrows_out"] += len(arrows)
            counts["expansion.semidirect_product.pairs_out"] += len(ic.cat.table)
            counts["arrows_squared"] += len(arrows) ** 2
        elif key == "expansion.product_order_leq":
            if id(args[0]) not in self._checked:
                self._checked.add(id(args[0]))
                self.selfcheck_s += self.end[idx] - self.start[idx]
        elif key == "expansion.inner_expansion":
            counts["expansion.inner_table_entries"] += len(result.table)
        elif key == "completion.cauchy_completion":
            counts["completion.cauchy_completion.morphisms_out"] += len(result.ic.morphisms)
            counts["completion.cauchy_completion.pairs_out"] += len(result.ic.cat.table)
        elif key == "specfile.load_category":
            counts["specfile.bytes_in"] += os.path.getsize(args[0])
        elif key == "specfile.save_category":
            counts["specfile.bytes_out"] += os.path.getsize(args[0])

    def wrap(self, key: str, fn):
        name = SHARED.get(key, key)
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.observe(key, args, result, idx)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted


def install(tracer: Tracer, package) -> None:
    """Wrap every listed function wherever the package binds it."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == package.__name__ or n.startswith(package.__name__ + ".")]
    replacements = {}
    for key in SPANS + COUNTED:
        module_name, _, attr = key.partition(".")
        owner = sys.modules[f"{package.__name__}.{module_name}"]
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[method]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = tracer.wrap(key, fn) if key in SPANS else tracer.count(key, fn)
            setattr(cls, method, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
        else:
            fn = getattr(owner, attr)
            replacements[id(fn)] = (fn, tracer.wrap(key, fn) if key in SPANS else tracer.count(key, fn))
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def self_times(names: list[str], name, parent, start, end) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self time per span name.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    n = len(name)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for i in range(n):
        key = names[name[i]]
        dur = end[i] - start[i]
        total[key] = total.get(key, 0.0) + dur
        own[key] = own.get(key, 0.0) + dur - child[i]
    return total, own


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from one traced pass."""
    _, own = self_times(tracer.names, tracer.name, tracer.parent, tracer.start, tracer.end)
    counts, calls = tracer.counts, tracer.calls
    out: dict[str, float] = {}
    for metric in per_layer_units():
        if metric.endswith(".self_s"):
            out[metric] = own.get(metric[: -len(".self_s")], 0.0)
        elif metric.endswith(".calls"):
            out[metric] = calls[metric[: -len(".calls")]]
        else:
            out[metric] = counts[metric]
    builds = calls["bernoulli.build_bernoulli"]
    out["bernoulli.builds_per_carrier"] = builds / tracer.carriers if tracer.carriers else 0.0
    arrows_sq = counts["arrows_squared"]
    out["expansion.semidirect_product.pair_density"] = (
        counts["expansion.semidirect_product.pairs_out"] / arrows_sq if arrows_sq else 0.0
    )
    out["expansion.order_selfcheck_s"] = tracer.selfcheck_s
    out["trace.overhead_ratio"] = overhead_ratio
    return out
