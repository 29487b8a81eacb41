"""Each module keeps its coding: no module reads another module's private names.

A ``Poset`` is its down-set masks; positions, lower covers and the bit
helpers are derived from them inside ``poset.py``.  A ``FiniteCategory``
is stored by ``core.py``: its source and target buckets, the integer rows
of ``ints()`` and the placeholder class of a joined category.  A
``BernoulliPoset`` is built by ``bernoulli.py`` from its R-classes: the
(idempotent, mask) code of each element, the key of each mask, the
per-idempotent buckets and the image tables of ``_images``.  Every other
module asks through public functions and methods (the carrier through
``act``, ``domain``, ``graph``, ``pseudo`` and ``star_rows``), so none imports a
``_``-prefixed name from another module of the library, reads a private
attribute of another module, or reads a private field or method that
another module defines.  ``down`` (of ``poset``) and ``ints`` (of
``core``) are public names, but they are the coding too.
"""

from __future__ import annotations

import ast
import glob
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "invcat")
PUBLIC_CODING = {"poset": {"down"}, "core": {"ints"}}


def parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def modules() -> dict[str, ast.Module]:
    return {os.path.basename(p)[:-3]: parse(p) for p in sorted(glob.glob(os.path.join(PACKAGE, "*.py")))}


def private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__") and name != "_"


def own_names(tree: ast.Module) -> set[str]:
    """The private names a module defines: at top level, in its class
    bodies, and as attributes its methods set on ``self``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            if isinstance(member, ast.FunctionDef):
                names.add(member.name)
            elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                names.add(member.target.id)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                if isinstance(sub.value, ast.Name) and sub.value.id == "self":
                    names.add(sub.attr)
    return {n for n in names if private(n)}


def codings(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """Module -> its coding: the private names it defines, and the public
    names of ``PUBLIC_CODING``."""
    return {name: own_names(tree) | PUBLIC_CODING.get(name, set()) for name, tree in trees.items()}


def package_module(node: ast.ImportFrom) -> bool:
    return node.level == 1 or (node.module or "").split(".")[0] == "invcat"


def coding_reads(tree: ast.Module, coding: set[str]) -> list[str]:
    """Each import of a private name from another module of the library,
    each private attribute read off such a module, and each read or write
    of an attribute named in ``coding``."""
    aliases = set()  # names bound to a module of the library
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, None), (0, "invcat")):
            aliases.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names if a.name.startswith("invcat.") and a.asname)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and package_module(node):
            found += [f"{node.lineno}: imports {a.name}" for a in node.names if private(a.name)]
        elif isinstance(node, ast.Attribute):
            on_module = isinstance(node.value, ast.Name) and node.value.id in aliases
            if node.attr in coding or (on_module and private(node.attr)):
                verb = "writes" if isinstance(node.ctx, ast.Store) else "reads"
                found.append(f"{node.lineno}: {verb} .{node.attr}")
    return sorted(found, key=lambda line: int(line.split(":")[0]))


def foreign_reads(trees: dict[str, ast.Module]) -> list[str]:
    """``coding_reads`` of every module against the codings of the others."""
    coding = codings(trees)
    found = []
    for name, tree in trees.items():
        others = set().union(*(c for other, c in coding.items() if other != name))
        found += [f"{name}.py:{where}" for where in coding_reads(tree, others)]
    return found


def test_the_coding_names_are_found():
    coding = codings(modules())
    assert {"down", "_pos", "_covers", "_mask"} <= coding["poset"]
    assert {"ints", "_by_src", "_by_tgt", "_ints", "_IntTable", "_Joined", "_assemble"} <= coding["core"]
    carrier = {"_members", "_codes", "_keys", "_bit", "_by_idem", "_tables", "_images", "_subset"}
    assert carrier <= coding["bernoulli"]


def test_no_module_reads_another_modules_coding():
    trees = modules()
    assert {"core", "poset", "actions", "specfile", "bernoulli", "expansion"} <= set(trees)
    assert foreign_reads(trees) == []


def test_the_guard_sees_a_read_of_the_coding():
    code = (
        "from .poset import _bits\n"
        "from . import poset as p\n"
        "x = poset.down, poset._covers, p._mask\n"
    )
    assert coding_reads(ast.parse(code), codings(modules())["poset"]) == [
        "1: imports _bits",
        "3: reads .down",
        "3: reads ._covers",
        "3: reads ._mask",
    ]


def test_the_guard_sees_a_read_of_the_category_coding():
    code = (
        "from .core import FiniteCategory, _IntTable\n"
        "from .bernoulli import BernoulliPoset, _bundle\n"
        "for s in ic.cat._by_src.get(ic.tgt(t), ()):\n"
        "    rows = cat.ints().rows\n"
        "cat._ints = _IntTable(cat, rows)\n"
        "import invcat.core as c\n"
        "c._light_test(cat)\n"
    )
    everything = set().union(*codings(modules()).values())
    assert coding_reads(ast.parse(code), everything) == [
        "1: imports _IntTable",
        "2: imports _bundle",
        "3: reads ._by_src",
        "4: reads .ints",
        "5: writes ._ints",
        "7: reads ._light_test",
    ]


def test_the_guard_sees_a_read_of_the_carrier_coding():
    code = (
        "e, mask = carrier._codes[k]\n"
        "f, image = bp._images(c, e)\n"
        "key = sz.carrier._subset(f, image[mask])\n"
        "size = len(bp._members[e])\n"
    )
    assert coding_reads(ast.parse(code), codings(modules())["bernoulli"]) == [
        "1: reads ._codes",
        "2: reads ._images",
        "3: reads ._subset",
        "4: reads ._members",
    ]
