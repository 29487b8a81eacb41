"""Shared session-scoped fixtures: the example categories and their expansions."""

from __future__ import annotations

import pytest

from invcat import (
    CauchyCompletion,
    InverseCategory,
    SzCategory,
    antichain2_poset,
    build_Iic,
    cauchy_completion,
    chain2_poset,
    cyclic_group_2,
    full_transformation_monoid_2,
    point_poset,
    symmetric_inverse_monoid_2,
    szendrei,
    trivial_category,
    two_object_groupoid,
)


@pytest.fixture(scope="session")
def t1() -> InverseCategory:
    return trivial_category()


@pytest.fixture(scope="session")
def z2() -> InverseCategory:
    return cyclic_group_2()


@pytest.fixture(scope="session")
def g2() -> InverseCategory:
    return two_object_groupoid()


@pytest.fixture(scope="session")
def i2() -> InverseCategory:
    return symmetric_inverse_monoid_2()


@pytest.fixture(scope="session")
def t2():
    return full_transformation_monoid_2()


@pytest.fixture(scope="session")
def iic_point() -> InverseCategory:
    return build_Iic(point_poset())


@pytest.fixture(scope="session")
def iic_chain2() -> InverseCategory:
    return build_Iic(chain2_poset())


@pytest.fixture(scope="session")
def iic_antichain2() -> InverseCategory:
    return build_Iic(antichain2_poset())


@pytest.fixture(scope="session")
def expansions(z2, g2, i2) -> dict[tuple[str, str], SzCategory]:
    """All four expansion variants of the three nontrivial fixtures."""
    out = {}
    for label, ic in (("z2", z2), ("g2", g2), ("i2", i2)):
        for variant in ("global", "partial", "strict_global", "strict_partial"):
            out[(label, variant)] = szendrei(ic, variant)
    return out


@pytest.fixture(scope="session")
def cases(request, expansions) -> dict[str, InverseCategory]:
    """Every inverse fixture, Iic of antichain2, the four expansions of I2."""
    names = ("t1", "z2", "g2", "i2", "iic_point", "iic_chain2", "iic_antichain2")
    out = {name: request.getfixturevalue(name) for name in names}
    for variant in ("global", "partial", "strict_global", "strict_partial"):
        out[f"sz_i2_{variant}"] = expansions[("i2", variant)].ic
    return out


@pytest.fixture(scope="session")
def completions(cases) -> dict[str, CauchyCompletion]:
    """The Cauchy completion of every case."""
    return {name: cauchy_completion(ic) for name, ic in cases.items()}
