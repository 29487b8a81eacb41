"""The runtime needs nothing beyond the standard library."""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROBE = """
import json, sys
before = set(sys.modules)
import invcat.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_the_cli_imports_only_the_standard_library():
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = json.loads(out)
    assert "invcat.cli" in loaded
    outside = [
        name
        for name in loaded
        if name.split(".")[0] not in sys.stdlib_module_names and name.split(".")[0] != "invcat"
    ]
    assert outside == []
