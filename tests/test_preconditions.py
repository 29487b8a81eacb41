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
    PartialOrderIso,
    PreconditionFailed,
    UndeclaredName,
    bernoulli_partial,
    classical_group_expansion,
    compose_functors,
    cyclic_group_2,
    expansion_functor,
    identity_functor,
    symmetric_inverse_monoid_2,
    szendrei,
    trivial_category,
    two_object_groupoid,
)
from invcat.bernoulli import build_bernoulli
from invcat.expansion import semidirect_product

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

T1, Z2, G2, I2 = trivial_category(), cyclic_group_2(), two_object_groupoid(), symmetric_inverse_monoid_2()


def _unit_arrows(extra: bool):
    """The pointed bundle of g2 with one element in two identity domains
    (``extra``) or in none."""
    bundle = bernoulli_partial(G2)
    x = min(bundle.domains["1X"])
    if extra:
        domains = {**bundle.domains, "1Y": bundle.domains["1Y"] | {x}}
        maps = {**bundle.maps, "1Y": PartialOrderIso((*bundle.maps["1Y"].pairs, (x, x)))}
    else:
        domains = {**bundle.domains, "1X": bundle.domains["1X"] - {x}}
        kept = tuple(p for p in bundle.maps["1X"].pairs if p[0] != x)
        maps = {**bundle.maps, "1X": PartialOrderIso(kept)}
    return dataclasses.replace(bundle, domains=domains, maps=maps)


def _lift(source, target, functor, variants=("global", "global")):
    return expansion_functor(szendrei(source, variants[0]), szendrei(target, variants[1]), functor)


# swap and id share an R-class of I2; sending swap to id1 moves {id,swap}
# onto a set that meets two R-classes, which no carrier holds
_SPLITS_AN_R_CLASS = Functor(
    I2.cat, I2.cat, {"*": "*"}, {m: "id1" if m == "swap" else m for m in I2.morphisms}
)
_T1_INTO_Z2 = Functor(T1.cat, Z2.cat, {"*": "*"}, {"1": "e"})
_IDENTITY_Z2 = identity_functor(Z2.cat)

PRECONDITION = (PreconditionFailed, "PRECONDITION_FAILED")
NOT_A_FUNCTOR = (NotAFunctor, "NOT_A_FUNCTOR")
NOT_COMPOSABLE = (NotComposable, "NOT_COMPOSABLE")

# (label, call, error class, code)
CASES = [
    ("szendrei-unknown-variant", lambda: szendrei(I2, "bogus"), *PRECONDITION),
    ("semidirect-two-unit-arrows", lambda: semidirect_product(_unit_arrows(True)), *PRECONDITION),
    ("semidirect-no-unit-arrow", lambda: semidirect_product(_unit_arrows(False)), *PRECONDITION),
    ("classical-not-a-group", lambda: classical_group_expansion(I2), *PRECONDITION),
    ("classical-two-objects", lambda: classical_group_expansion(G2), *PRECONDITION),
    ("lift-variants-differ", lambda: _lift(Z2, Z2, _IDENTITY_Z2, ("global", "partial")), *PRECONDITION),
    ("lift-wrong-source", lambda: _lift(T1, Z2, _IDENTITY_Z2), *PRECONDITION),
    ("lift-wrong-target", lambda: _lift(T1, T1, _T1_INTO_Z2), *PRECONDITION),
    ("lift-image-subset-missing", lambda: _lift(I2, I2, _SPLITS_AN_R_CLASS), *NOT_A_FUNCTOR),
    ("meet-across-objects", lambda: G2.meet_idem("1X", "1Y"), *NOT_COMPOSABLE),
    ("act-from-another-object", lambda: build_bernoulli(G2).act("1Y", "{1X,si}"), *NOT_COMPOSABLE),
    ("arrow-name-missing", lambda: szendrei(Z2).arrow_name("{g}", "nope"), UndeclaredName, "UNDECLARED_NAME"),
    ("functors-do-not-chain", lambda: compose_functors(identity_functor(T1.cat), _IDENTITY_Z2), *NOT_A_FUNCTOR),
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


def test_preconditions_hold_under_python_O():
    paths = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    run = subprocess.run(
        [sys.executable, "-O", "-c", REPLAY], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.splitlines() == ["1", *EXPECTED]
