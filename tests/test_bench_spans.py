"""The benchmark's spans still name functions of the library.

``bench/spans.py`` wraps every function listed in ``SPANS`` and ``COUNTED``
by its dotted name, ``module.function`` or ``module.Class.method``; its
``install`` raises AttributeError or KeyError when one of them has been
renamed or deleted, which otherwise shows only when the traced benchmark
runs.  The two lists are read here with ``ast``, so nothing under
``bench/`` is imported or edited.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib

SPANS_PY = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def listed_names() -> dict[str, list[str]]:
    """The literal tuples ``SPANS`` and ``COUNTED`` of ``bench/spans.py``."""
    tree = ast.parse(SPANS_PY.read_text(encoding="utf-8"))
    return {
        target.id: list(ast.literal_eval(node.value))
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("SPANS", "COUNTED")
    }


def resolves(key: str) -> bool:
    """Whether ``key`` names a function of ``invcat`` the way ``install``
    looks it up: a module attribute, or a method in the class's own dict."""
    module_name, _, attr = key.partition(".")
    owner = importlib.import_module(f"invcat.{module_name}")
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        cls = getattr(owner, cls_name, None)
        return inspect.isclass(cls) and name in vars(cls) and callable(getattr(cls, name))
    return inspect.isfunction(getattr(owner, name, None))


def test_every_bench_span_names_a_library_function():
    names = listed_names()
    assert sorted(names) == ["COUNTED", "SPANS"]
    assert all(names.values())
    keys = names["SPANS"] + names["COUNTED"]
    assert [key for key in keys if not resolves(key)] == []
