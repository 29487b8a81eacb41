"""A caller's broken precondition raises its typed error, also under ``python -O``.

``CASES`` lists one call per precondition with the error class and code it
must raise.  The table runs in-process and again in one ``python -O``
subprocess, where ``assert`` statements would be stripped.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import textwrap

import pytest

from invcat import (
    Functor,
    NotAFunctor,
    NotComposable,
    NotIdempotent,
    PartialOrderIso,
    Poset,
    PreconditionFailed,
    SizeCapExceeded,
    UndeclaredName,
    bernoulli_partial,
    classical_group_expansion,
    compose_functors,
    corestriction,
    cyclic_group_2,
    expansion_functor,
    identity_functor,
    inner_expansion,
    natural_leq,
    product_order_leq,
    pseudo_product,
    restriction,
    symmetric_inverse_monoid_2,
    szendrei,
    trivial_category,
    two_object_groupoid,
    wedge,
)
from invcat.bernoulli import build_bernoulli
from invcat.expansion import semidirect_product

from oracles import cyclic_group

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

T1, Z2, G2, I2 = trivial_category(), cyclic_group_2(), two_object_groupoid(), symmetric_inverse_monoid_2()
SZ2 = szendrei(Z2)
UNIT = "({e}|e)"  # an idempotent arrow of SZ2


def _unit_arrows(extra: bool):
    """The pointed bundle of g2 with one element in two identity domains
    (``extra``) or in none."""
    bundle = bernoulli_partial(G2)
    x = min(bundle.domains["1X"])
    if extra:
        maps = {**bundle.maps, "1Y": PartialOrderIso((*bundle.maps["1Y"].pairs, (x, x)))}
    else:
        kept = tuple(p for p in bundle.maps["1X"].pairs if p[0] != x)
        maps = {**bundle.maps, "1X": PartialOrderIso(kept)}
    return dataclasses.replace(bundle, maps=maps)


def _lift(source, target, functor, variants=("global", "global")):
    return expansion_functor(szendrei(source, variants[0]), szendrei(target, variants[1]), functor)


# swap and id share an R-class of I2; sending swap to id1 moves {id,swap}
# onto a set that meets two R-classes, which no carrier holds
_SPLITS_AN_R_CLASS = Functor(
    I2.cat, I2.cat, {"*": "*"}, {m: "id1" if m == "swap" else m for m in I2.morphisms}
)
_T1_INTO_Z2 = Functor(T1.cat, Z2.cat, {"*": "*"}, {"1": "e"})
_IDENTITY_Z2 = identity_functor(Z2.cat)
# no image for s21 or for emp, which I2 declares first
_I2_WITHOUT_TWO = Functor(I2.cat, I2.cat, {"*": "*"}, {m: m for m in I2.morphisms if m not in ("s21", "emp")})
_Z2_WITHOUT_G = Functor(Z2.cat, Z2.cat, {"*": "*"}, {"e": "e"})

PRECONDITION = (PreconditionFailed, "PRECONDITION_FAILED")
NOT_A_FUNCTOR = (NotAFunctor, "NOT_A_FUNCTOR")
NOT_COMPOSABLE = (NotComposable, "NOT_COMPOSABLE")
NOT_IDEMPOTENT = (NotIdempotent, "NOT_IDEMPOTENT")
UNDECLARED = (UndeclaredName, "UNDECLARED_NAME")
SIZE_CAP = (SizeCapExceeded, "SIZE_CAP_EXCEEDED")

# (label, call, error class, code)
CASES = [
    ("szendrei-unknown-variant", lambda: szendrei(I2, "bogus"), *PRECONDITION),
    ("semidirect-two-unit-arrows", lambda: semidirect_product(_unit_arrows(True)), *PRECONDITION),
    ("semidirect-no-unit-arrow", lambda: semidirect_product(_unit_arrows(False)), *PRECONDITION),
    ("classical-not-a-group", lambda: classical_group_expansion(I2), *PRECONDITION),
    ("classical-two-objects", lambda: classical_group_expansion(G2), *PRECONDITION),
    # 576 elements, so 331,776 table entries against the default cap
    ("classical-above-the-cap", lambda: classical_group_expansion(cyclic_group(8)), *SIZE_CAP),
    ("lift-variants-differ", lambda: _lift(Z2, Z2, _IDENTITY_Z2, ("global", "partial")), *PRECONDITION),
    ("lift-wrong-source", lambda: _lift(T1, Z2, _IDENTITY_Z2), *PRECONDITION),
    ("lift-wrong-target", lambda: _lift(T1, T1, _T1_INTO_Z2), *PRECONDITION),
    ("lift-image-subset-missing", lambda: _lift(I2, I2, _SPLITS_AN_R_CLASS), *NOT_A_FUNCTOR),
    ("lift-morphism-without-image", lambda: _lift(I2, I2, _I2_WITHOUT_TWO), *NOT_A_FUNCTOR),
    ("meet-across-objects", lambda: G2.meet_idem("1X", "1Y"), *NOT_COMPOSABLE),
    ("meet-not-idempotent", lambda: I2.meet_idem("s12", "s21"), *NOT_IDEMPOTENT),
    ("meet-unknown-morphism", lambda: I2.meet_idem("nope", "id1"), *UNDECLARED),
    # s after 1Y is undefined too: idempotency is checked first
    ("meet-not-idempotent-across-objects", lambda: G2.meet_idem("s", "1Y"), *NOT_IDEMPOTENT),
    ("act-from-another-object", lambda: build_bernoulli(G2).act("1Y", "{1X,si}"), *NOT_COMPOSABLE),
    ("arrow-name-missing", lambda: szendrei(Z2).arrow_name("{g}", "nope"), *UNDECLARED),
    ("pseudo-product-unknown-arrow", lambda: pseudo_product(SZ2, UNIT, "nope"), *UNDECLARED),
    ("product-order-unknown-arrow", lambda: product_order_leq(SZ2, "nope", UNIT), *UNDECLARED),
    ("restriction-unknown-arrow", lambda: restriction(SZ2, "nope", UNIT), *UNDECLARED),
    ("corestriction-unknown-idempotent", lambda: corestriction(SZ2, UNIT, "nope"), *UNDECLARED),
    # an unknown name is undeclared, not a non-idempotent arrow
    ("wedge-unknown-arrow", lambda: wedge(SZ2, "nope", UNIT), *UNDECLARED),
    ("inner-expansion-unknown-object", lambda: inner_expansion(SZ2, "nope"), *UNDECLARED),
    ("natural-leq-unknown-morphism", lambda: natural_leq(Z2, "e", "nope"), *UNDECLARED),
    ("act-unknown-element", lambda: build_bernoulli(Z2).act("g", "nope"), *UNDECLARED),
    ("functors-do-not-chain", lambda: compose_functors(identity_functor(T1.cat), _IDENTITY_Z2), *NOT_A_FUNCTOR),
    ("functors-image-without-image", lambda: compose_functors(_Z2_WITHOUT_G, _IDENTITY_Z2), *NOT_A_FUNCTOR),
    ("poset-masks-too-few", lambda: Poset(("a", "b"), (0b01,)), *PRECONDITION),
    ("poset-masks-too-many", lambda: Poset(("a",), (0b1, 0b1)), *PRECONDITION),
    ("poset-mask-beyond-the-last-element", lambda: Poset(("a", "b"), (0b001, 0b110)), *PRECONDITION),
]


def outcome(call) -> str:
    """The class and code a call raises, or what it did instead."""
    try:
        call()
    except Exception as exc:  # any escape is reported, not raised
        return f"{type(exc).__name__} {getattr(exc, 'code', '-')}"
    return "returned"


EXPECTED = [f"{label} {cls.__name__} {code}" for label, _, cls, code in CASES]


@pytest.mark.parametrize("label, call, cls, code", CASES, ids=[c[0] for c in CASES])
def test_precondition_raises_its_typed_error(label, call, cls, code):
    with pytest.raises(cls) as err:
        call()
    assert type(err.value) is cls and err.value.code == code


REPLAY = textwrap.dedent(
    """
    import sys
    import test_preconditions as t

    print(sys.flags.optimize)
    for label, call, _, _ in t.CASES:
        print(label, t.outcome(call))
    """
)


def test_a_missing_image_is_named_in_declaration_order():
    with pytest.raises(NotAFunctor) as err:
        _lift(I2, I2, _I2_WITHOUT_TWO)
    assert err.value.details == {"morphism": "emp"}
    with pytest.raises(NotAFunctor) as err:
        compose_functors(_Z2_WITHOUT_G, _IDENTITY_Z2)
    assert err.value.details == {"name": "g"}


def test_preconditions_hold_under_python_O():
    paths = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    run = subprocess.run(
        [sys.executable, "-O", "-c", REPLAY], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.splitlines() == ["1", *EXPECTED]
