"""The indexed order checks against the pairwise scans they replace.

``Poset`` stores its order as down-set bitmasks and checks its axioms on
them, ``poset_from_relation`` builds those masks from pairs, ``is_ideal`` and
``PartialOrderIso.make`` read the same masks (and the lower covers, between
ideals), ``order_isos_between`` extends a map point by point,
``build_bernoulli`` enumerates its order directly, and
``validate_inverse_semigroup`` decides associativity by Light's test.  Each
must agree with the scan or the search in oracles.py: the same verdict, the
same failure message, the same witnesses and the same isos in the same
order.  The last tests count operations, so that an all-pairs scan, a
permutation search, or a construction or validation that lists the order's
pairs, cannot come back unseen.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from invcat import (
    PartialOrderIso,
    Poset,
    PreconditionFailed,
    bernoulli_global,
    bernoulli_partial,
    build_bernoulli,
    chain_poset,
    fibred_to_symmetry,
    ideals,
    inner_expansion,
    is_ideal,
    poset_from_relation,
    symmetry_to_partial,
    szendrei,
    validate_fibred,
    validate_inverse_semigroup,
    validate_partial,
    validate_symmetry,
)

from invcat import poset as poset_module
from invcat.expansion import VARIANTS
from invcat.poset import antichain_poset, order_isos_between, subposet
from oracles import (
    CountingTable,
    PARTIAL_BIJECTIONS,
    brute_bernoulli_relation,
    brute_ideals,
    brute_inverse_semigroup_violations,
    brute_is_ideal,
    brute_order_iso,
    brute_order_isos,
    brute_poset_axiom_failure,
    cyclic_group,
    sub_inverse_monoid,
)

NAMES = tuple("abcdefg")


@st.composite
def orders(draw, most: int = len(NAMES)) -> tuple[tuple[str, ...], frozenset[tuple[str, str]]]:
    """A random partial order on at most ``most`` names: the
    reflexive-transitive closure of random edges between shuffled names,
    each edge going up in the shuffle."""
    n = draw(st.integers(1, most))
    names = tuple(draw(st.permutations(NAMES[:n])))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    above = [{i} for i in range(n)]
    for i in reversed(range(n)):
        for a, b in edges:
            if a == i and b > i:
                above[i] |= above[b]
    relation = frozenset((names[i], names[j]) for i in range(n) for j in above[i])
    return names, relation


def poset_failure(elements, relation) -> str | None:
    try:
        poset_from_relation(elements, relation)
    except PreconditionFailed as exc:
        return exc.message
    return None


def iso_outcome(poset: Poset, pairs) -> PartialOrderIso | str | tuple:
    try:
        return PartialOrderIso.make(poset, pairs)
    except PreconditionFailed as exc:
        return exc.details["failure"]


@pytest.mark.parametrize(
    ("elements", "relation", "message"),
    [
        ("aa", {("a", "a")}, "duplicate poset elements"),
        ("ab", {("a", "a"), ("b", "b"), ("a", "z")}, "relation references unknown element"),
        ("ab", {("a", "a"), ("a", "b")}, "relation not reflexive"),
        ("ab", {("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")}, "relation not antisymmetric"),
        ("abc", {("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")}, "relation not transitive"),
        ("abc", {("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c"), ("a", "c")}, None),
        # both broken: the pair (c, b), met at b, comes before (b, c), met at c
        ("abc", {("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c"), ("c", "b")}, "relation not antisymmetric"),
        # both broken: (c, a) is met first, and b ≤ c but not b ≤ a
        ("abc", {("a", "a"), ("b", "b"), ("c", "c"), ("c", "a"), ("b", "c"), ("c", "b")}, "relation not transitive"),
    ],
)
def test_each_poset_axiom_has_its_message(elements, relation, message):
    assert poset_failure(tuple(elements), frozenset(relation)) == message
    assert brute_poset_axiom_failure(tuple(elements), frozenset(relation)) == message


@pytest.mark.parametrize("extra", [{(0, 1), (0, 2), (2, 0)}, {(0, 1), (1, 2), (2, 1)}, {(2, 0), (1, 2), (2, 1)}])
def test_poset_reports_the_axiom_the_scan_meets_first(extra):
    # both antisymmetry and transitivity fail; the pair a < b met first, b in
    # element order and then a, decides which one is reported
    relation = frozenset(extra | {(i, i) for i in range(3)})
    assert poset_failure((0, 1, 2), relation) == brute_poset_axiom_failure((0, 1, 2), relation)


# b ≤ c ≤ b breaks antisymmetry, and b ≤ c with a ≤ b but not a ≤ c breaks
# transitivity; the scan meets (c, b) first
SEEDED_FAILURE = textwrap.dedent(
    """
    from invcat import PreconditionFailed, poset_from_relation

    pairs = {("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c"), ("c", "b")}
    try:
        poset_from_relation(("a", "b", "c"), frozenset(pairs))
    except PreconditionFailed as exc:
        print(exc.message)
    """
)


def test_poset_errors_do_not_depend_on_the_hash_seed():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    messages = set()
    for seed in range(10):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)}
        run = subprocess.run(
            [sys.executable, "-c", SEEDED_FAILURE], capture_output=True, text=True, env=env, check=True
        )
        messages.add(run.stdout)
    assert messages == {"relation not antisymmetric\n"}


@settings(max_examples=200, deadline=None)
@given(orders(), st.data())
def test_poset_axioms_match_the_scan_on_tampered_orders(order, data):
    elements, relation = order
    # toggling a few pairs breaks reflexivity, antisymmetry or transitivity,
    # or brings in the unknown name z
    pool = st.sampled_from(elements + ("z",))
    toggled = data.draw(st.sets(st.tuples(pool, pool), max_size=3))
    tampered = relation ^ frozenset(toggled)
    assert poset_failure(elements, tampered) == brute_poset_axiom_failure(elements, tampered)


@settings(max_examples=100, deadline=None)
@given(orders(), st.data())
def test_is_ideal_and_down_sets_match_the_scan(order, data):
    poset = poset_from_relation(*order)
    subset = data.draw(st.sets(st.sampled_from(poset.elements + ("z",))))
    assert is_ideal(poset, subset) == brute_is_ideal(poset, subset)
    for x, mask in zip(poset.elements, poset.down):
        assert mask == sum(1 << i for i, a in enumerate(poset.elements) if poset.leq(a, x))


@settings(max_examples=100, deadline=None)
@given(orders(), st.data())
def test_a_subposet_inherits_the_order(order, data):
    poset = poset_from_relation(*order)
    subset = data.draw(st.sets(st.sampled_from(poset.elements + ("z",))))
    inherited = subposet(poset, subset)
    assert inherited.elements == tuple(x for x in poset.elements if x in subset)
    assert inherited.relation == {(a, b) for a, b in order[1] if a in subset and b in subset}


@settings(max_examples=100, deadline=None)
@given(orders())
def test_the_masks_are_the_relation(order):
    elements, relation = order
    poset = poset_from_relation(elements, relation)
    assert poset.relation == relation
    assert Poset(poset.elements, poset.down) == poset
    # sequences given as lists are stored as tuples
    listed = Poset(list(poset.elements), list(poset.down))
    assert listed == poset and hash(listed) == hash(poset)
    points = elements + ("z",)
    assert all(poset.leq(a, b) == ((a, b) in relation) for a in points for b in points)


@settings(max_examples=200, deadline=None)
@given(orders(), st.data())
def test_order_iso_make_matches_the_scan(order, data):
    poset = poset_from_relation(*order)
    if data.draw(st.booleans()):
        # a bijection between random subsets of equal size
        k = data.draw(st.integers(0, len(poset.elements)))
        dom = data.draw(st.permutations(poset.elements))[:k]
        ran = data.draw(st.permutations(poset.elements))[:k]
        pairs = list(zip(dom, ran))
    else:
        pool = st.sampled_from(poset.elements + ("z",))
        pairs = data.draw(st.lists(st.tuples(pool, pool), max_size=4))
    assert iso_outcome(poset, pairs) == brute_order_iso(poset, pairs)


@settings(max_examples=200, deadline=None)
@given(orders(), st.data())
def test_order_iso_make_between_ideals_matches_the_scan(order, data):
    # both sides ideals: the order test walks lower covers; the elements are
    # declared in any order, not only along a linear extension
    poset = poset_from_relation(data.draw(st.permutations(order[0])), order[1])
    every = ideals(poset)
    dom = data.draw(st.sampled_from(every))
    ran = data.draw(st.sampled_from([v for v in every if len(v) == len(dom)]))
    pairs = list(zip(sorted(dom), data.draw(st.permutations(sorted(ran)))))
    assert iso_outcome(poset, pairs) == brute_order_iso(poset, pairs)


@settings(max_examples=100, deadline=None)
@given(orders(), st.data())
def test_lower_covers_match_the_definition(order, data):
    poset = poset_from_relation(data.draw(st.permutations(order[0])), order[1])
    for b, at in zip(poset.elements, poset._covers):
        below = [a for a in poset.elements if a != b and poset.leq(a, b)]
        covers = [a for a in below if not any(poset.leq(a, c) for c in below if c != a)]
        assert at == tuple(map(poset._pos.__getitem__, covers)), b


@settings(max_examples=60, deadline=None)
@given(orders(most=6))
def test_order_isos_between_matches_the_permutation_search(order):
    poset = poset_from_relation(*order)
    every = ideals(poset)
    for u in every:
        for v in every:
            found = [dict(iso.pairs) for iso in order_isos_between(poset, u, v)]
            assert found == brute_order_isos(tuple(u), tuple(v), poset.leq), (u, v)


@settings(max_examples=100, deadline=None)
@given(orders(most=6))
def test_ideals_match_the_subset_filter_in_their_pinned_order(order):
    """``ideals`` lists each down-closed subset once, by size and then by
    the element indices of its members."""
    poset = poset_from_relation(*order)
    index = {x: i for i, x in enumerate(poset.elements)}
    pinned = sorted(
        brute_ideals(poset.elements, poset.leq), key=lambda u: (len(u), sorted(map(index.__getitem__, u)))
    )
    assert list(ideals(poset)) == pinned


def test_bernoulli_order_matches_the_pairwise_predicate(request):
    for name in ("t1", "z2", "g2", "i2", "iic_point", "iic_chain2"):
        ic = request.getfixturevalue(name)
        for pointed in (False, True):
            bp = build_bernoulli(ic, pointed=pointed)
            assert bp.poset.relation == brute_bernoulli_relation(ic.cat, bp.elements), (name, pointed)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.sampled_from(PARTIAL_BIJECTIONS), min_size=1, max_size=3))
def test_bernoulli_order_on_random_sub_inverse_monoids_of_i3(generators):
    monoid = sub_inverse_monoid(generators)
    for pointed in (False, True):
        bp = build_bernoulli(monoid, pointed=pointed)
        assert bp.poset.relation == brute_bernoulli_relation(monoid.cat, bp.elements)


def report_rows(elements, table) -> list[tuple[str, tuple, str]]:
    report = validate_inverse_semigroup(elements, table)
    return [(v.rule, v.witness, v.detail) for v in report.violations]


@pytest.fixture(scope="module")
def prefix_expansions():
    """The inner partial expansions of Z5 and Z6 (48 and 112 elements)."""
    out = {}
    for n in (5, 6):
        ie = inner_expansion(szendrei(cyclic_group(n), "partial"), "*")
        out[n] = (ie.elements, ie.table)
    return out


def test_light_test_matches_the_cubic_scan(prefix_expansions):
    for elements, table in prefix_expansions.values():
        assert report_rows(elements, table) == brute_inverse_semigroup_violations(elements, table) == []


def test_tampered_tables_give_the_cubic_report(prefix_expansions):
    elements, table = prefix_expansions[5]
    a, b, c = elements[3], elements[17], elements[40]
    tampered = [
        {**table, (a, b): c},  # one wrong product: associativity fails
        {**table, (b, b): "outsider"},  # escapes the set
        {k: v for k, v in table.items() if k != (c, a)},  # missing product
    ]
    # associative, but its two idempotents do not commute
    left_zero = {("a", "a"): "a", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "b"}
    for elems, tab in [(elements, t) for t in tampered] + [(("a", "b"), left_zero)]:
        rows = report_rows(elems, tab)
        assert rows and rows == brute_inverse_semigroup_violations(elems, tab)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)))
def test_light_test_matches_the_cubic_scan_on_random_tables(entries):
    n = int(len(entries) ** 0.5)
    elements = tuple(NAMES[:n])
    table = {
        (elements[i], elements[j]): elements[entries[i * n + j]] for i in range(n) for j in range(n)
    }
    assert report_rows(elements, table) == brute_inverse_semigroup_violations(elements, table)


# ---------------------------------------------------------------------------
# operation counts


def test_inverse_semigroup_check_stays_below_a_quarter_of_the_triples(prefix_expansions):
    elements, table = prefix_expansions[6]
    counting = CountingTable(table)
    assert validate_inverse_semigroup(elements, counting).ok
    assert counting.lookups < len(elements) ** 3 / 4


def test_bernoulli_round_trip_calls_leq_at_most_once_per_relation_pair(monkeypatch):
    i3 = sub_inverse_monoid(list(PARTIAL_BIJECTIONS))
    assert len(i3.morphisms) == 34
    calls = 0
    leq = Poset.leq

    def counting_leq(self, a, b):
        nonlocal calls
        calls += 1
        return leq(self, a, b)

    monkeypatch.setattr(Poset, "leq", counting_leq)
    fibred = bernoulli_global(i3)
    assert validate_fibred(fibred).ok
    symmetry = fibred_to_symmetry(fibred)
    assert validate_symmetry(symmetry).ok
    assert validate_partial(symmetry_to_partial(symmetry)).ok
    assert validate_partial(bernoulli_partial(i3)).ok
    assert calls <= len(fibred.poset.relation) == 6039


def test_constructions_never_list_the_order_pairs(monkeypatch, g2):
    reads = 0
    listed = Poset.relation.fget

    def counting(self):
        nonlocal reads
        reads += 1
        return listed(self)

    monkeypatch.setattr(Poset, "relation", property(counting))
    for ic in (sub_inverse_monoid(list(PARTIAL_BIJECTIONS)), g2):
        for variant in VARIANTS:
            szendrei(ic, variant)
        for pointed in (False, True):
            build_bernoulli(ic, pointed=pointed)
        bernoulli_partial(ic)
    assert reads == 0
    assert build_bernoulli(g2).poset.relation and reads == 1


def test_clean_action_validation_neither_lists_the_order_nor_scans_pairs(monkeypatch):
    """The ideal-to-ideal order tests walk covers: no ``relation`` read, no
    down-set walk and no pairwise scan (whose ≤ tests go through ``leq``).
    The validators decide once whether both sides are ideals, so the order
    test makes no ideal test of its own."""
    i3 = sub_inverse_monoid(list(PARTIAL_BIJECTIONS))
    fibred = bernoulli_global(i3)
    partial = bernoulli_partial(i3)
    counts = {"relation": 0, "leq": 0, "down-set walk": 0, "ideal test": 0}

    def counting(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(Poset, "relation", property(counting("relation", Poset.relation.fget)))
    monkeypatch.setattr(Poset, "leq", counting("leq", Poset.leq))
    walk = counting("down-set walk", poset_module._maps_down_sets_onto)
    monkeypatch.setattr(poset_module, "_maps_down_sets_onto", walk)
    monkeypatch.setattr(poset_module, "is_ideal", counting("ideal test", poset_module.is_ideal))
    assert validate_fibred(fibred).ok
    symmetry = fibred_to_symmetry(fibred)
    assert validate_symmetry(symmetry).ok
    assert validate_partial(symmetry_to_partial(symmetry)).ok
    assert validate_partial(partial).ok
    assert counts == {"relation": 0, "leq": 0, "down-set walk": 0, "ideal test": 0}


def test_order_isos_of_the_8_chain_take_at_most_64_candidate_tests(monkeypatch):
    """A permutation search would test 8! maps to find the one iso."""
    chain = chain_poset("abcdefgh")
    tests = 0
    fits = poset_module._fits

    def counting(*args):
        nonlocal tests
        tests += 1
        return fits(*args)

    monkeypatch.setattr(poset_module, "_fits", counting)
    everything = frozenset(chain.elements)
    isos = order_isos_between(chain, everything, everything)
    assert [iso.pairs for iso in isos] == [tuple(zip("abcdefgh", "abcdefgh"))]
    assert 0 < tests <= 8**2


def test_order_isos_between_antichains_are_listed_untested(monkeypatch):
    """Between two antichains every bijection is an iso: the 4! of them
    come in the search's order, with no candidate test."""
    antichain = antichain_poset("abcd")
    monkeypatch.setattr(poset_module, "_fits", None)
    everything = frozenset(antichain.elements)
    isos = order_isos_between(antichain, everything, everything)
    assert [tuple(b for _, b in iso.pairs) for iso in isos] == list(itertools.permutations("abcd"))
