"""Scalable input generators for the benchmark.

Every input is built through the public API (``FiniteCategory.build``,
``find_inverse_structure``, ``poset_from_function``) and checked against
its closed-form size before anything is timed.  The seed only permutes the
declaration order of objects, morphisms and poset elements; names and sizes
never depend on it, so sorted-name digests are seed independent.

The ``invcat`` package is passed in as a module object, because each set-up
repetition imports it afresh.
"""

from __future__ import annotations

import itertools
import random
from math import comb, factorial


def shuffled(items, rng: random.Random) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# closed forms


def symmetric_inverse_size(n: int) -> int:
    """|I_n| = Σ_k C(n,k)²·k!."""
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


def brandt_size(n: int, k: int) -> int:
    """|B(Z_n, k)| = n·k²."""
    return n * k * k


def bernoulli_size(r_class_sizes: list[int], pointed: bool) -> int:
    """Σ(2^|R| − 1) over the R-classes, or Σ 2^(|R|−1) for the pointed poset."""
    return sum(2 ** (r - 1) if pointed else 2**r - 1 for r in r_class_sizes)


def symmetric_inverse_r_classes(n: int) -> list[int]:
    """The idempotent on a k-set has an R-class of C(n,k)·k! partial bijections."""
    return [comb(n, k) * factorial(k) for k in range(n + 1) for _ in range(comb(n, k))]


def brandt_r_classes(n: int, k: int) -> list[int]:
    """Each of the k identities has n·k morphisms ending at its object."""
    return [n * k] * k


def prefix_expansion_size(n: int) -> int:
    """The pointed (prefix) expansion of a group of order n: (n+1)·2^(n−2)."""
    return (n + 1) * 2 ** (n - 2)


def iic_size(kind: str, n: int) -> tuple[int, int]:
    """(objects, morphisms) of build_Iic over a chain or an antichain of n."""
    if kind == "chain":
        # n+1 prefix ideals; between sub-ideals of equal size there is one iso
        return n + 1, sum(min(a, b) + 1 for a in range(n + 1) for b in range(n + 1))
    # antichain: every subset is an ideal and every bijection an order iso
    return 2**n, sum(
        comb(n, a) * comb(n, b) * sum(comb(a, j) * comb(b, j) * factorial(j) for j in range(min(a, b) + 1))
        for a in range(n + 1)
        for b in range(n + 1)
    )


# ---------------------------------------------------------------------------
# generators


def _build(invcat, objects, morphisms, identities, table, rng):
    """Declare objects and morphisms in seeded order, then verify inverses."""
    objs = shuffled(objects, rng)
    mors = {m: morphisms[m] for m in shuffled(morphisms, rng)}
    cat = invcat.FiniteCategory.build(objs, mors, identities, table)
    return invcat.find_inverse_structure(cat)


def symmetric_inverse_monoid(invcat, n: int, rng: random.Random):
    """I_n: all partial bijections of {1..n}.

    A morphism is named by its image word: position i holds the image of
    i + 1, or '-' where undefined ("2-1" sends 1 to 2 and 3 to 1).
    """
    maps: dict[str, dict[int, int]] = {}
    for k in range(n + 1):
        for dom in itertools.combinations(range(n), k):
            for ran in itertools.permutations(range(n), k):
                graph = dict(zip(dom, ran))
                maps["".join(str(graph[i] + 1) if i in graph else "-" for i in range(n))] = graph
    names = {tuple(sorted(g.items())): name for name, g in maps.items()}
    table = {}
    for gname, g in maps.items():
        for fname, f in maps.items():
            composite = tuple(sorted((a, g[b]) for a, b in f.items() if b in g))
            table[(gname, fname)] = names[composite]
    ic = _build(
        invcat, ["*"], {m: ("*", "*") for m in maps}, {"*": "".join(str(i + 1) for i in range(n))}, table, rng
    )
    assert len(ic.morphisms) == symmetric_inverse_size(n), ("I_n size", n)
    return ic


def brandt_groupoid(invcat, n: int, k: int, rng: random.Random):
    """B(Z_n, k): objects o0..o{k-1}, one arrow i -> j per element of Z_n.

    The arrow ``x{i}.{j}.{g}`` runs from o{i} to o{j}; composing
    j -> l after i -> j adds the group labels.  With k = 1 this is Z_n.
    """
    objects = [f"o{i}" for i in range(k)]
    data = {f"x{i}.{j}.{g}": (i, j, g) for i in range(k) for j in range(k) for g in range(n)}
    morphisms = {m: (f"o{i}", f"o{j}") for m, (i, j, _) in data.items()}
    table = {}
    for gname, (j, l, h) in data.items():
        for fname, (i, j2, g) in data.items():
            if j2 == j:
                table[(gname, fname)] = f"x{i}.{l}.{(g + h) % n}"
    identities = {f"o{i}": f"x{i}.{i}.0" for i in range(k)}
    ic = _build(invcat, objects, morphisms, identities, table, rng)
    assert len(ic.morphisms) == brandt_size(n, k), ("B(Z_n,k) size", n, k)
    return ic


def cyclic_group(invcat, n: int, rng: random.Random):
    """Z_n as a one-object category."""
    return brandt_groupoid(invcat, n, 1, rng)


def order_poset(invcat, kind: str, n: int, rng: random.Random):
    """A chain a < b < ... or an antichain on n letters, declared in seeded order."""
    letters = "abcdefghijklmnopqrstuvwxyz"[:n]
    if kind == "chain":
        leq = lambda a, b: a <= b  # noqa: E731
    else:
        leq = lambda a, b: a == b  # noqa: E731
    return invcat.poset_from_function(tuple(shuffled(letters, rng)), leq)


def iic(invcat, kind: str, n: int, rng: random.Random):
    """build_Iic over a chain or antichain, checked against its closed form."""
    ic = invcat.build_Iic(order_poset(invcat, kind, n, rng))
    assert (len(ic.objects), len(ic.morphisms)) == iic_size(kind, n), ("Iic size", kind, n)
    return ic
