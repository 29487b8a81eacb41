"""The order coding stays in ``poset.py``.

A ``Poset`` is its down-set masks; positions, lower covers and the bit
helpers are derived from them inside ``poset.py``.  Every other module of
the library asks its order questions through public functions, so none
imports a ``_``-prefixed name from ``poset``, reads a private attribute of
the module, or reads ``down`` or a private attribute of a ``Poset``.
"""

from __future__ import annotations

import ast
import glob
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "invcat")


def parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def poset_coding() -> set[str]:
    """``down`` and the private fields and methods of ``Poset``."""
    tree = parse(os.path.join(PACKAGE, "poset.py"))
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Poset")
    names = {"down"}
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if n == "down" or (n.startswith("_") and not n.endswith("__"))}


def is_poset_module(node: ast.ImportFrom) -> bool:
    return (node.level, node.module) in ((1, "poset"), (0, "invcat.poset"))


def coding_reads(tree: ast.Module, coding: set[str]) -> list[str]:
    """Each import of a private poset name and each read of the coding."""
    aliases = set()  # names bound to the poset module itself
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, None), (0, "invcat")):
            aliases.update(a.asname or a.name for a in node.names if a.name == "poset")
        elif isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names if a.name == "invcat.poset" and a.asname)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and is_poset_module(node):
            found += [f"{node.lineno}: imports {a.name}" for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute):
            on_module = isinstance(node.value, ast.Name) and node.value.id in aliases
            if node.attr in coding or (on_module and node.attr.startswith("_")):
                found.append(f"{node.lineno}: reads .{node.attr}")
    return found


def test_the_coding_names_are_found():
    assert {"down", "_pos", "_covers", "_mask"} <= poset_coding()


def test_no_module_but_poset_reads_the_order_coding():
    coding = poset_coding()
    paths = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    assert len(paths) > 1
    found = []
    for path in paths:
        name = os.path.basename(path)
        if name != "poset.py":
            found += [f"{name}:{where}" for where in coding_reads(parse(path), coding)]
    assert found == []


def test_the_guard_sees_a_read_of_the_coding():
    code = (
        "from .poset import _bits\n"
        "from . import poset as p\n"
        "x = poset.down, poset._covers, p._mask\n"
    )
    assert coding_reads(ast.parse(code), poset_coding()) == [
        "1: imports _bits",
        "3: reads .down",
        "3: reads ._covers",
        "3: reads ._mask",
    ]
