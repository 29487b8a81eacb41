"""The library has no ``assert`` statement, so ``python -O`` changes nothing.

A caller's broken precondition raises a typed error, the poset and
order-isomorphism checks among them, and what a validated category already
proves is not checked again.
"""

from __future__ import annotations

import ast
import glob
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "invcat")


def test_the_library_has_no_assert_statement():
    paths = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        name = os.path.basename(path)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
