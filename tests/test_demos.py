"""The scripts in demos/ run against the current API and print exactly
their recorded output, ``tests/golden/demo_<name>.out``, byte for byte."""

from __future__ import annotations

import glob
import os
import runpy

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def golden(path: str) -> bytes:
    name = os.path.splitext(os.path.basename(path))[0]
    with open(os.path.join(ROOT, "tests", "golden", f"demo_{name}.out"), "rb") as handle:
        return handle.read()


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, capsys):
    runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out.encode("utf-8") == golden(path)
