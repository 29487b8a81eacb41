"""Block decompositions of the linear span and Morita certificates.

The free module on the morphisms, with product composition-or-zero, splits
into matrix blocks over the isotropy groups of the idempotent classes.  The
dimension identity |morphisms| = Σ n² · |G| pins the block shapes down; two
categories whose block group sets agree are certified equivalent.
"""

from __future__ import annotations

from invcat import (
    cyclic_group_2,
    decompose,
    morita_check,
    symmetric_inverse_monoid_2,
    szendrei,
    trivial_category,
    two_object_groupoid,
)


def main() -> None:
    fixtures = {
        "T1": trivial_category(),
        "Z2": cyclic_group_2(),
        "G2": two_object_groupoid(),
        "I2": symmetric_inverse_monoid_2(),
    }
    for name, ic in fixtures.items():
        dec = decompose(ic)
        parts = " + ".join(
            f"{c.multiplicity}²·{len(c.group.elements)}" for c in dec.blocks
        )
        print(f"{name}: |morphisms| = {len(ic.morphisms)} = {parts}"
              f"  (identity holds: {dec.dimension == len(ic.morphisms)})")

    i2 = fixtures["I2"]
    print(f"\nconvolution product on I2: {len(i2.cat.table)} nonzero"
          f" of {len(i2.morphisms) ** 2} basis pairs")

    print("\nMorita comparisons:")
    pairs = [
        ("G2", "T1"),   # a contractible groupoid collapses to the point
        ("Z2", "T1"),   # different isotropy: nothing can be certified
        ("I2", "I2"),
    ]
    for a, b in pairs:
        verdict = morita_check(fixtures[a], fixtures[b])
        print(f"  {a} vs {b}: {verdict.status}")

    sub = szendrei(i2, "strict_partial").ic
    sup = szendrei(i2, "strict_global").ic
    verdict = morita_check(sub, sup)
    print(f"  pointed vs full strict expansion of I2: {verdict.status}")
    for left, right, order in verdict.evidence["pairing"]:
        print(f"    block {left} ≙ block {right} (group order {order})")


if __name__ == "__main__":
    main()
