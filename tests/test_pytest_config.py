"""The repository's pytest settings keep a failing property readable.

``filterwarnings = ["error"]`` turns every warning into an error, and the
hypothesis reporting hook imports a module that warns about
``mypy_extensions.TypedDict``; without the message-scoped ignore in
``pyproject.toml`` a failing property ended in INTERNALERROR and its
falsifying example was never printed.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_small(n):
    assert n < 5
'''


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    test = tmp_path / "test_failing_property.py"
    test.write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-c",
            str(ROOT / "pyproject.toml"),
            "--rootdir",
            str(ROOT),
            "-p",
            "no:cacheprovider",
            "-q",
            str(test),
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example:" in output
    assert "INTERNALERROR" not in output
    assert "1 failed" in output
