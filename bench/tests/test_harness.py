"""Tests of the benchmark harness itself (not of invcat).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import inputs as gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def invcat():
    return run.fresh_invcat()


# ---------------------------------------------------------------------------
# generators and their closed forms


def test_closed_forms_by_hand():
    assert [gen.symmetric_inverse_size(n) for n in range(5)] == [1, 2, 7, 34, 209]
    assert gen.brandt_size(2, 3) == 18
    assert gen.prefix_expansion_size(6) == 112
    assert gen.bernoulli_size(gen.symmetric_inverse_r_classes(3), pointed=False) == 274
    assert gen.bernoulli_size(gen.symmetric_inverse_r_classes(3), pointed=True) == 141
    assert gen.iic_size("antichain", 4) == (16, 2840)
    assert gen.iic_size("chain", 1) == (2, 5)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetric_inverse_monoid(invcat, n):
    ic = gen.symmetric_inverse_monoid(invcat, n, random.Random(n))
    assert len(ic.morphisms) == gen.symmetric_inverse_size(n)
    sizes = sorted(len(ic.r_class(e)) for e in ic.idempotents())
    assert sizes == sorted(gen.symmetric_inverse_r_classes(n))


@pytest.mark.parametrize(("n", "k"), [(1, 1), (3, 1), (2, 2), (2, 3)])
def test_brandt_groupoid(invcat, n, k):
    ic = gen.brandt_groupoid(invcat, n, k, random.Random(k))
    assert len(ic.morphisms) == gen.brandt_size(n, k)
    assert sorted(len(ic.r_class(e)) for e in ic.idempotents()) == gen.brandt_r_classes(n, k)


@pytest.mark.parametrize("pointed", [False, True])
def test_bernoulli_counts(invcat, pointed):
    rng = random.Random(0)
    cases = [
        (gen.symmetric_inverse_monoid(invcat, 2, rng), gen.symmetric_inverse_r_classes(2)),
        (gen.cyclic_group(invcat, 4, rng), gen.brandt_r_classes(4, 1)),
        (gen.brandt_groupoid(invcat, 2, 2, rng), gen.brandt_r_classes(2, 2)),
    ]
    for ic, rsizes in cases:
        carrier = invcat.build_bernoulli(ic, pointed=pointed)
        assert len(carrier.elements) == gen.bernoulli_size(rsizes, pointed)


@pytest.mark.parametrize("n", [3, 4])
def test_prefix_expansion_size(invcat, n):
    group = gen.cyclic_group(invcat, n, random.Random(n))
    inner = invcat.inner_expansion(invcat.szendrei(group, "partial"), group.objects[0])
    assert len(inner.elements) == gen.prefix_expansion_size(n)


@pytest.mark.parametrize(("kind", "n"), [("chain", 3), ("antichain", 2)])
def test_iic_sizes(invcat, kind, n):
    ic = gen.iic(invcat, kind, n, random.Random(n))
    assert (len(ic.objects), len(ic.morphisms)) == gen.iic_size(kind, n)


def test_seed_permutes_declarations_not_names(invcat):
    a = gen.symmetric_inverse_monoid(invcat, 3, random.Random(1))
    b = gen.symmetric_inverse_monoid(invcat, 3, random.Random(2))
    assert a.morphisms != b.morphisms
    assert workloads.digest(workloads.canon_category(a)) == workloads.digest(workloads.canon_category(b))


# ---------------------------------------------------------------------------
# self time from span nesting


def test_self_times_on_a_synthetic_tree():
    # root [0,10] has children a [1,4] and b [5,9]; b has child a [6,7]
    names = ["root", "a", "b"]
    name = [0, 1, 2, 1]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    total, own = spans.self_times(names, name, parent, start, end)
    assert total == {"root": 10.0, "a": 4.0, "b": 4.0}
    assert own == {"root": 3.0, "a": 4.0, "b": 3.0}


def test_install_wraps_every_import_site(invcat):
    fresh = run.fresh_invcat()
    tracer = spans.Tracer()
    spans.install(tracer, fresh)
    # szendrei reaches build_bernoulli both directly (through the name
    # imported into expansion) and inside bernoulli_global
    fresh.szendrei(gen.symmetric_inverse_monoid(fresh, 2, random.Random(0)), "global")
    tracer.end_op()
    metrics = spans.layer_metrics(tracer, 1.0)
    assert metrics["bernoulli.build_bernoulli.calls"] == 2
    assert metrics["bernoulli.builds_per_carrier"] == 2.0
    assert metrics["expansion.semidirect_product.arrows_out"] == 37
    _, own = spans.self_times(tracer.names, tracer.name, tracer.parent, tracer.start, tracer.end)
    assert own["expansion.szendrei"] >= 0.0
    assert list(metrics) == list(spans.per_layer_units())


# ---------------------------------------------------------------------------
# latency quantiles


def test_quantile_of_uniform_and_constant_samples():
    assert run.quantile([7.0] * 150, 0.9) == pytest.approx(7.0)
    values = [float(i) for i in range(1001)]
    random.Random(0).shuffle(values)
    assert run.quantile(values, 0.5) == pytest.approx(500.0, abs=1.0)
    assert run.quantile(values, 0.9) == pytest.approx(900.0, rel=0.01)


def test_quantile_moves_smoothly_across_a_gap():
    # half the samples near 10, half near 30: the sample median jumps from
    # one cluster to the other when one sample crosses; the smoothed one moves a little
    low, high = [10.0 + i / 100 for i in range(50)], [30.0 + i / 100 for i in range(50)]
    shifted = low[:-1] + [30.5] + high
    assert 10.0 < run.quantile(low + high, 0.5) < 30.0
    assert abs(run.quantile(shifted, 0.5) - run.quantile(low + high, 0.5)) < 2.0


# ---------------------------------------------------------------------------
# the correctness gate


def test_gate_counts_a_tampered_construction(invcat):
    op = workloads.Op(
        "szendrei:I2:global",
        lambda st: None,
        workloads.fp(lambda sz: workloads.canon_category(sz.ic)),
        lambda sz: len(sz.ic.objects) == 10,
    )
    expected = workloads.load_expected()
    sz = invcat.szendrei(gen.symmetric_inverse_monoid(invcat, 2, random.Random(5)), "global")
    assert workloads.passes(op, sz, expected)
    first = sz.ic.cat.morphisms[0]
    key = next(k for k, v in sz.ic.cat.table.items() if v == first)
    sz.ic.cat.table[key] = sz.ic.cat.morphisms[1]
    assert not workloads.passes(op, sz, expected)
    assert not workloads.passes(op, RuntimeError("raised"), expected)


def test_gate_counts_a_wrong_query_answer(invcat):
    ic = gen.symmetric_inverse_monoid(invcat, 2, random.Random(0))
    index = workloads.Index(ic)
    s, t = "1-", "12"
    op = workloads.Op("query:natural_leq", lambda st: None, law=lambda r: r is index.leq(s, t))
    assert workloads.passes(op, invcat.natural_leq(ic, s, t), {})
    assert not workloads.passes(op, not invcat.natural_leq(ic, s, t), {})


def test_gate_counts_a_tampered_cli_report(invcat, tmp_path):
    root = os.path.dirname(BENCH)
    tmp = str(tmp_path)
    paths = workloads.write_cli_inputs(invcat, random.Random(0), tmp)
    expected = workloads.load_expected()
    fingerprint = workloads.cli_fingerprint(tmp, root)
    op = workloads.Op("validate:i2", lambda st: None, fingerprint)
    out = workloads.run_cli(invcat.cli.main, ["validate", paths["i2"]])
    assert workloads.passes(op, out, expected)
    tampered = workloads.Outcome(out.code, out.stdout.replace('"valid": true', '"valid": false'), None)
    assert not workloads.passes(op, tampered, expected)
    assert not workloads.passes(op, workloads.Outcome(1, out.stdout, None), expected)
    # a known defect: exit 0 where exit 2 with a typed error is documented
    defect = workloads.Op("cli:duplicate_json_keys", lambda st: None, law=workloads.error_law("PARSE_ERROR"))
    assert not workloads.passes(defect, workloads.run_cli(invcat.cli.main, ["validate", paths["duplicate_keys"]]), {})
