"""The scripts in demos/ run to completion against the current API."""

from __future__ import annotations

import glob
import os
import runpy

import pytest

DEMOS = sorted(
    glob.glob(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", "*.py"))
)


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, capsys):
    runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out
