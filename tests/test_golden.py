"""Byte-exact CLI output on the sample files in demos/data.

Each case runs ``invcat.cli.main`` from the repository root, so the input
paths in the report are the relative ones listed here, and compares stdout
with ``tests/golden/<case>.out``.  ``expand --emit-spec`` writes into a
temporary directory whose path is replaced by ``<tmp>`` before comparing;
the emitted file is compared too.

Regenerate the files (only when a change of output is intended) with::

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

from invcat.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
DATA = "demos/data"
TMP = "<tmp>"
EMITTED = "sz.json"


def _data(name: str) -> str:
    return f"{DATA}/{name}.json"


CASES: dict[str, tuple[list[str], int]] = {
    **{f"validate_{n}": (["validate", _data(n)], 0) for n in ("t1", "z2", "g2", "i2")},
    "bernoulli_i2": (["bernoulli", _data("i2")], 0),
    "bernoulli_i2_circ": (["bernoulli", _data("i2"), "--circ"], 0),
    **{
        f"expand_i2_{v}": (["expand", _data("i2"), "--variant", v], 0)
        for v in ("global", "partial", "strict-global", "strict-partial")
    },
    "expand_i2_strict-partial_inner": (
        ["expand", _data("i2"), "--variant", "strict-partial", "--inner", "*"],
        0,
    ),
    "expand_i2_emit_spec": (["expand", _data("i2"), "--emit-spec", f"{TMP}/{EMITTED}"], 0),
    "cauchy_i2": (["cauchy", _data("i2")], 0),
    "decompose_i2": (["decompose", _data("i2")], 0),
    "morita_g2_t1": (["morita", _data("g2"), _data("t1")], 0),
    "enlargement_t1_g2": (
        ["enlargement", _data("t1"), _data("g2"), "--embedding", _data("t1_into_g2")],
        0,
    ),
    "enlargement_t1_z2": (
        ["enlargement", _data("t1"), _data("z2"), "--embedding", _data("t1_into_z2")],
        1,
    ),
}


def _run(argv: list[str], tmp: str) -> tuple[int, str, str | None]:
    """Exit code, stdout with the temporary path hidden, and the emitted file."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([a.replace(TMP, tmp) for a in argv])
    finally:
        os.chdir(cwd)
    emitted = os.path.join(tmp, EMITTED)
    spec = None
    if os.path.exists(emitted):
        with open(emitted, encoding="utf-8") as handle:
            spec = handle.read()
    return code, out.getvalue().replace(tmp, TMP), spec


def _golden(name: str) -> str:
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as handle:
        return handle.read()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_byte_identical(case, tmp_path):
    argv, want_code = CASES[case]
    code, stdout, spec = _run(argv, str(tmp_path))
    assert code == want_code
    assert stdout == _golden(f"{case}.out")
    if spec is not None:
        assert spec == _golden(f"{case}.{EMITTED}")


# one process runs these back to back, forwards and then backwards, so each
# run follows runs with and without --circ, --max-elements and the env cap;
# each gives its golden report, or SIZE_CAP_EXCEEDED at the cap given for
# the 37 arrows of the expansion
SEQUENCE: list[tuple[list[str], str | None, str | int]] = [
    (["bernoulli", _data("i2"), "--circ"], None, "bernoulli_i2_circ"),
    (["bernoulli", _data("i2")], None, "bernoulli_i2"),
    (["expand", _data("i2"), "--max-elements", "36"], None, 36),
    (["expand", _data("i2"), "--variant", "global"], None, "expand_i2_global"),
    (["expand", _data("i2")], "30", 30),
    (["expand", _data("i2"), "--max-elements", "37"], "30", "expand_i2_global"),
    (["expand", _data("i2"), "--variant", "partial"], None, "expand_i2_partial"),
]


def test_back_to_back_runs_share_no_parsed_state(tmp_path, monkeypatch):
    for argv, env, want in SEQUENCE + SEQUENCE[::-1]:
        if env is None:
            monkeypatch.delenv("INVCAT_MAX_ELEMENTS", raising=False)
        else:
            monkeypatch.setenv("INVCAT_MAX_ELEMENTS", env)
        code, stdout, _ = _run(argv, str(tmp_path))
        if isinstance(want, str):
            assert (code, stdout) == (0, _golden(f"{want}.out")), argv
        else:
            error = json.loads(stdout)["error"]
            assert code == 2 and error["code"] == "SIZE_CAP_EXCEEDED", argv
            assert error["details"] == {"cap": want, "size": 37}, argv


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for case, (argv, _) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            _, stdout, spec = _run(argv, tmp)
        outputs = {f"{case}.out": stdout}
        if spec is not None:
            outputs[f"{case}.{EMITTED}"] = spec
        for name, text in outputs.items():
            with open(os.path.join(GOLDEN, name), "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        print(case, file=sys.stderr)
