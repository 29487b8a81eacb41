"""The command-line interface: reports, exit codes, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import invcat.specfile
from invcat import (
    FiniteCategory,
    ParseError,
    ToolkitError,
    cyclic_group_2,
    dump_category,
    find_inverse_structure,
    full_transformation_monoid_2,
    load_category,
    parse_category,
    save_category,
    symmetric_inverse_monoid_2,
    szendrei,
    trivial_category,
    two_object_groupoid,
)
from invcat.cli import _INPUT_ERROR_CODES, main

from oracles import brute_parse_spec


@pytest.fixture(scope="module")
def datadir(tmp_path_factory):
    root = tmp_path_factory.mktemp("categories")
    for name, ic in (
        ("t1", trivial_category()),
        ("z2", cyclic_group_2()),
        ("g2", two_object_groupoid()),
        ("i2", symmetric_inverse_monoid_2()),
    ):
        save_category(str(root / f"{name}.json"), ic.cat, ic.inverse)
    save_category(str(root / "t2.json"), full_transformation_monoid_2())
    (root / "t1_into_g2.json").write_text(
        '{"objects": {"*": "X"}, "morphisms": {"1": "1X"}}\n'
    )
    (root / "t1_into_z2.json").write_text(
        '{"objects": {"*": "*"}, "morphisms": {"1": "e"}}\n'
    )
    (root / "broken.json").write_text('{"invcat-spec": 1,\n  "objects": [}')
    return root


def run(capsys, *argv: str) -> tuple[int, dict, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_validate_success(datadir, capsys):
    code, report, err = run(capsys, "validate", str(datadir / "i2.json"))
    assert code == 0
    assert report["command"] == "validate"
    assert report["result"]["valid"] is True
    assert report["result"]["inverse"]["s12"] == "s21"
    (digest,) = report["inputs"].values()
    assert len(digest) == 64
    assert report["violations"] == []
    assert "elapsed" in err


def test_validate_rejects_non_inverse_category(datadir, capsys):
    code, report, _ = run(capsys, "validate", str(datadir / "t2.json"))
    assert code == 1
    assert report["result"]["valid"] is False
    assert any("generalized inverse" in v for v in report["violations"])


def test_missing_file(capsys):
    code, report, _ = run(capsys, "validate", "/no/such/file.json")
    assert code == 2
    assert report["error"]["code"] == "IO_ERROR"


def test_parse_error_reports_position(datadir, capsys):
    code, report, _ = run(capsys, "validate", str(datadir / "broken.json"))
    assert code == 2
    assert report["error"]["code"] == "PARSE_ERROR"
    assert report["error"]["details"]["line"] == 2


def test_reports_are_byte_deterministic(datadir, capsys):
    main(["cauchy", str(datadir / "i2.json")])
    first = capsys.readouterr().out
    main(["cauchy", str(datadir / "i2.json")])
    second = capsys.readouterr().out
    assert first == second


def test_bernoulli_counts(datadir, capsys):
    code, report, _ = run(capsys, "bernoulli", str(datadir / "z2.json"))
    assert code == 0 and report["result"]["count"] == 3
    assert set(report["result"]["domains"]) == {"global", "strict_global"}
    code, report, _ = run(capsys, "bernoulli", str(datadir / "z2.json"), "--circ")
    assert code == 0 and report["result"]["count"] == 2
    assert report["result"]["domains"]["partial"]["g"] == ["{e,g}"]


def test_expand_inner_and_emit(datadir, capsys, tmp_path):
    out = tmp_path / "sz.json"
    code, report, _ = run(
        capsys,
        "expand",
        str(datadir / "i2.json"),
        "--variant",
        "strict-partial",
        "--inner",
        "*",
        "--emit-spec",
        str(out),
    )
    assert code == 0
    assert report["result"]["count"] == 10
    assert report["result"]["inner"]["identity"] == "({id}|id)"
    assert report["result"]["emitted"]["path"] == str(out)

    code2, report2, _ = run(capsys, "validate", str(out))
    assert code2 == 0
    assert report2["result"]["morphisms"] == 10

    # emitting again reproduces the identical file
    code3, report3, _ = run(
        capsys,
        "expand",
        str(datadir / "i2.json"),
        "--variant",
        "strict-partial",
        "--emit-spec",
        str(out),
    )
    assert report3["result"]["emitted"]["sha256"] == report["result"]["emitted"]["sha256"]


@pytest.mark.parametrize("variant", ["global", "partial", "strict-global", "strict-partial"])
@pytest.mark.parametrize("name", ["i2", "z2"])
def test_emit_spec_loads_back_to_an_equal_category(datadir, capsys, tmp_path, name, variant):
    out = tmp_path / "sz.json"
    code, _, _ = run(
        capsys, "expand", str(datadir / f"{name}.json"), "--variant", variant, "--emit-spec", str(out)
    )
    assert code == 0
    origin = find_inverse_structure(load_category(str(datadir / f"{name}.json"))[0])
    want = szendrei(origin, variant.replace("-", "_")).ic
    cat, inverse = load_category(str(out))
    assert_parsed_as_the_scan_parses(out.read_text())
    assert cat.objects == want.cat.objects
    assert cat.morphisms == want.cat.morphisms
    assert (cat.src, cat.tgt) == (want.cat.src, want.cat.tgt)
    assert cat.identity == want.cat.identity
    assert cat.table == want.cat.table
    assert inverse == want.inverse


def test_expand_unknown_inner_object(datadir, capsys):
    code, report, _ = run(
        capsys, "expand", str(datadir / "z2.json"), "--inner", "nowhere"
    )
    assert code == 2
    assert report["error"]["code"] == "UNDECLARED_NAME"


def test_enlargement_verdicts(datadir, capsys):
    code, report, _ = run(
        capsys,
        "enlargement",
        str(datadir / "t1.json"),
        str(datadir / "g2.json"),
        "--embedding",
        str(datadir / "t1_into_g2.json"),
    )
    assert code == 0
    assert report["result"]["overall"] is True
    assert report["result"]["equivalence"]["overall"] is True

    code, report, _ = run(
        capsys,
        "enlargement",
        str(datadir / "t1.json"),
        str(datadir / "z2.json"),
        "--embedding",
        str(datadir / "t1_into_z2.json"),
    )
    assert code == 1
    assert report["result"]["axioms"]["axiom2"] is False
    assert "equivalence" not in report["result"]


def test_enlargement_needs_embedding_for_disjoint_names(datadir, capsys):
    code, report, err = run(
        capsys, "enlargement", str(datadir / "t1.json"), str(datadir / "g2.json")
    )
    assert code == 2
    assert report["error"]["code"] == "UNDECLARED_NAME"
    assert report["error"]["details"] == {"names": ["*", "1"]}
    assert "Traceback" not in err


def test_embedding_file_must_have_exact_keys(datadir, capsys, tmp_path):
    bad = tmp_path / "emb.json"
    bad.write_text('{"objects": {}, "morphisms": {}, "junk": 1}')
    code, report, _ = run(
        capsys,
        "enlargement",
        str(datadir / "t1.json"),
        str(datadir / "g2.json"),
        "--embedding",
        str(bad),
    )
    assert code == 2
    assert report["error"]["code"] == "PARSE_ERROR"


def test_embedding_values_must_be_names(datadir, capsys, tmp_path):
    bad = tmp_path / "emb.json"
    bad.write_text('{"objects": {"*": ["X"]}, "morphisms": {"1": ["1X"]}}')
    code, report, _ = run(
        capsys,
        "enlargement",
        str(datadir / "t1.json"),
        str(datadir / "g2.json"),
        "--embedding",
        str(bad),
    )
    assert code == 2
    assert report["error"]["code"] == "PARSE_ERROR"


def test_duplicate_json_keys_are_rejected(capsys, tmp_path):
    spec = tmp_path / "dup.json"
    spec.write_text(
        '{"invcat-spec": 1, "objects": ["*"],'
        ' "morphisms": [{"name": "1", "src": "*", "tgt": "*"}],'
        ' "identities": {"*": "1", "*": "1"},'
        ' "composition": [{"left": "1", "right": "1", "result": "1"}]}'
    )
    code, report, _ = run(capsys, "validate", str(spec))
    assert code == 2
    assert report["error"]["code"] == "PARSE_ERROR"
    assert report["error"]["details"] == {"key": "*"}


def test_duplicate_object_declarations_are_rejected(capsys, tmp_path):
    spec = tmp_path / "dup_objects.json"
    spec.write_text(
        '{"invcat-spec": 1, "objects": ["*", "*"],'
        ' "morphisms": [{"name": "1", "src": "*", "tgt": "*"}],'
        ' "identities": {"*": "1"},'
        ' "composition": [{"left": "1", "right": "1", "result": "1"}]}'
    )
    code, report, err = run(capsys, "validate", str(spec))
    assert code == 2
    assert report["error"]["code"] == "PARSE_ERROR"
    assert report["error"]["message"] == "duplicate object name '*'"
    assert report["error"]["details"] == {}
    assert "Traceback" not in err


def test_decompose(datadir, capsys):
    code, report, _ = run(capsys, "decompose", str(datadir / "i2.json"))
    assert code == 0
    assert report["result"]["dimension"] == 7
    assert report["result"]["identity_holds"] is True
    assert len(report["result"]["blocks"]) == 3


def test_morita(datadir, capsys):
    code, report, _ = run(
        capsys, "morita", str(datadir / "g2.json"), str(datadir / "t1.json")
    )
    assert code == 0
    assert report["result"]["status"] == "EQUIVALENT_CERTIFIED"
    code, report, _ = run(
        capsys, "morita", str(datadir / "z2.json"), str(datadir / "t1.json")
    )
    assert code == 1
    assert report["result"]["status"] == "INCONCLUSIVE"


def test_size_cap_flag_and_env(datadir, capsys, monkeypatch):
    code, report, _ = run(
        capsys, "expand", str(datadir / "i2.json"), "--max-elements", "5"
    )
    assert code == 2
    assert report["error"]["code"] == "SIZE_CAP_EXCEEDED"

    monkeypatch.setenv("INVCAT_MAX_ELEMENTS", "5")
    code, report, _ = run(capsys, "expand", str(datadir / "i2.json"))
    assert code == 2
    assert report["error"]["code"] == "SIZE_CAP_EXCEEDED"


@pytest.mark.parametrize(
    ("argv", "size"),
    [
        (["expand", "i2.json", "--variant", "global"], 37),  # Σ_s |D_s| arrows
        (["expand", "i2.json", "--variant", "global", "--inner", "*"], 1369),  # 37² ⋆ entries
        (["cauchy", "i2.json"], 34),  # Σ_s |↑s°s|·|↑ss°| completion morphisms
        (["enlargement", "t1.json", "g2.json", "--embedding", "t1_into_g2.json"], 4),
        (["decompose", "i2.json"], 7),  # algebra dimension = morphism count
        (["morita", "g2.json", "t1.json"], 4),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_max_elements_caps_the_predicted_size(datadir, capsys, argv, size):
    args = [str(datadir / a) if a.endswith(".json") else a for a in argv]
    code, report, err = run(capsys, *args, "--max-elements", str(size - 1))
    assert code == 2
    assert report["error"]["code"] == "SIZE_CAP_EXCEEDED"
    assert report["error"]["details"] == {"cap": size - 1, "size": size}
    assert "Traceback" not in err
    code, report, _ = run(capsys, *args, "--max-elements", str(size))
    assert code in (0, 1) and "error" not in report


def closed_pipe_run(argv: list[str], **env: str) -> subprocess.CompletedProcess:
    """``python -m invcat`` with its stdout a pipe whose reader has already
    closed it, so the first write of the report fails."""
    root = pathlib.Path(__file__).resolve().parent.parent
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(
            [sys.executable, "-m", "invcat", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src"), **env},
            timeout=60,
        )
    finally:
        os.close(write)


def test_a_closed_stdout_keeps_the_exit_code_without_a_traceback():
    argv = ["validate", "demos/data/i2.json"]
    for env, want in (({}, 0), ({"INVCAT_MAX_ELEMENTS": "abc"}, 2)):
        run = closed_pipe_run(argv, **env)
        assert run.returncode == want, run.stderr
        assert "Traceback" not in run.stderr and "BrokenPipeError" not in run.stderr


def test_bad_max_elements_env_is_a_parse_error(datadir, capsys, monkeypatch):
    for raw in ("abc", "1.5", "0", "-3"):
        monkeypatch.setenv("INVCAT_MAX_ELEMENTS", raw)
        code, report, err = run(capsys, "expand", str(datadir / "i2.json"))
        assert code == 2
        assert report["command"] == "expand"
        assert report["error"]["code"] == "PARSE_ERROR"
        assert report["error"]["details"] == {"value": raw, "variable": "INVCAT_MAX_ELEMENTS"}
        assert "Traceback" not in err
    monkeypatch.delenv("INVCAT_MAX_ELEMENTS")
    for raw in ("abc", "1.5", "0", "-3"):
        for command in ("validate", "expand"):
            code, report, err = run(capsys, command, str(datadir / "i2.json"), "--max-elements", raw)
            assert code == 2
            assert report["command"] == command
            assert report["error"]["code"] == "PARSE_ERROR"
            assert report["error"]["details"] == {"value": raw, "flag": "--max-elements"}
            assert "Traceback" not in err


def test_subsets_sharing_a_name_are_an_input_error(capsys, tmp_path):
    """With 1_P named "a" and 1_Q named "a,b", R_a = {a, b} and R_{a,b} =
    {a,b; p}, so the subsets {a, b} and {"a,b"} are both named {a,b}."""
    spec = tmp_path / "shared_name.json"
    cat = FiniteCategory.build(
        ("P", "Q"),
        {"a": ("P", "P"), "a,b": ("Q", "Q"), "p": ("P", "Q"), "b": ("Q", "P")},
        {"P": "a", "Q": "a,b"},
        {
            ("a", "a"): "a",
            ("a,b", "a,b"): "a,b",
            ("p", "a"): "p",
            ("a,b", "p"): "p",
            ("b", "a,b"): "b",
            ("a", "b"): "b",
            ("b", "p"): "a",
            ("p", "b"): "a,b",
        },
    )
    save_category(str(spec), cat, {"a": "a", "a,b": "a,b", "p": "b", "b": "p"})
    for argv in (["bernoulli"], ["bernoulli", "--circ"], ["expand"], ["expand", "--variant", "strict-partial"]):
        code, report, err = run(capsys, argv[0], str(spec), *argv[1:])
        assert code == 2
        assert report["error"]["code"] == "PARSE_ERROR"
        assert report["error"]["details"] == {"key": "{a,b}"}
        assert "Traceback" not in err


def test_arrows_sharing_a_name_are_an_input_error(capsys, tmp_path):
    """In Z4 with morphisms "2" (the identity), "3}|4", "2}|3" and "4", the
    global arrows ({2}, 3}|4) and ({2}|3}, 4) are both named ({2}|3}|4)."""
    spec = tmp_path / "shared_arrow_name.json"
    names = ["2", "3}|4", "2}|3", "4"]
    cat = FiniteCategory.build(
        ("*",),
        {m: ("*", "*") for m in names},
        {"*": "2"},
        {(g, f): names[(i + j) % 4] for i, g in enumerate(names) for j, f in enumerate(names)},
    )
    save_category(str(spec), cat, {m: names[-i % 4] for i, m in enumerate(names)})
    for variant in ("global", "strict-global"):
        code, report, err = run(capsys, "expand", str(spec), "--variant", variant)
        assert code == 2
        assert report["error"]["code"] == "PARSE_ERROR"
        assert report["error"]["details"] == {"name": "({2}|3}|4)"}
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# malformed spec text: a typed error and exit 2, never a traceback

DEMO_DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"
SPECS = {name: (DEMO_DATA / f"{name}.json").read_text() for name in ("t1", "z2", "g2", "i2")}


def parse_outcome(parse, text: str):
    """(category, inverse), or the class, message and details of the error."""
    try:
        return parse(text)
    except ToolkitError as exc:
        return type(exc), exc.message, exc.details


def assert_parse_agrees_with_the_scan(text: str) -> None:
    """``parse_category`` and the ordered scan of ``oracles.brute_parse_spec``
    give the same category and inverse, or the same error."""
    assert parse_outcome(parse_category, text) == parse_outcome(brute_parse_spec, text)


def assert_parsed_as_the_scan_parses(text: str) -> None:
    """A well-formed spec is read in bulk, never reaching the record walk
    (the only caller of ``specfile._one``), and both readers give the same
    category and inverse."""

    def walked(values):
        pytest.fail(f"a well-formed spec took the record walk at {values}")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invcat.specfile, "_one", walked)
        parsed = parse_category(text)
    assert parsed == brute_parse_spec(text)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_demo_specs_load_in_bulk_as_the_scan_loads_them(name):
    assert_parsed_as_the_scan_parses(SPECS[name])


def repeat_then_retype(data: dict) -> None:
    data["morphisms"][1]["name"] = "emp"  # repeats the first name
    data["morphisms"][3]["src"] = 5


def bad_morphism_and_composition_entry(data: dict) -> None:
    del data["morphisms"][2]["tgt"]
    data["composition"][0]["extra"] = "x"


def bad_identity_and_composition_entry(data: dict) -> None:
    data["identities"]["*"] = 1
    data["composition"][0]["result"] = 7


@pytest.mark.parametrize(
    ("edit", "message"),
    [
        (repeat_then_retype, "duplicate morphism name 'emp'"),
        (bad_morphism_and_composition_entry, "morphism entry {'name': 'id2', 'src': '*'} lacks 'tgt'"),
        (bad_identity_and_composition_entry, "identity of * must be str, got int"),
    ],
)
def test_a_spec_with_two_faults_names_the_earlier_one(edit, message):
    """Each spec breaks two rules; the one met first in document order is
    reported, so a reader that checked every type before any repeat, or
    read a later section before an earlier one, would fail here."""
    data = json.loads(SPECS["i2"])
    edit(data)
    text = json.dumps(data)
    assert parse_outcome(parse_category, text) == (ParseError, message, {})
    assert_parse_agrees_with_the_scan(text)


def run_quietly(*argv: str) -> tuple[int, str]:
    """main() with stdout captured and stderr dropped; an escaping
    exception fails the test with its traceback."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def assert_typed_input_error(path) -> dict:
    code, out = run_quietly("validate", str(path))
    report = json.loads(out)
    assert code == 2, report
    assert report["error"]["code"] in _INPUT_ERROR_CODES
    return report


@pytest.mark.parametrize("name", sorted(SPECS))
def test_truncated_specs_are_parse_errors(tmp_path, name):
    text = SPECS[name].rstrip()
    path = tmp_path / "cut.json"
    for cut in sorted({*range(0, len(text), max(1, len(text) // 40)), len(text) - 1}):
        path.write_text(text[:cut])
        assert assert_typed_input_error(path)["error"]["code"] == "PARSE_ERROR"
        assert_parse_agrees_with_the_scan(text[:cut])


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(SPECS)),
    st.integers(0, 10**6),
    st.sampled_from(list('{}[],:"01-x *') + ["", '"1"', "null", "[]", "{}", "true"]),
)
def test_mutated_specs_never_escape_as_tracebacks(name, where, replacement):
    text = SPECS[name]
    k = where % len(text)
    mutated = text[:k] + replacement + text[k + 1:]
    assert_parse_agrees_with_the_scan(mutated)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "mutated.json"
        path.write_text(mutated)
        code, out = run_quietly("validate", str(path))
    report = json.loads(out)
    assert code in (0, 1, 2)
    if code == 2:
        assert report["error"]["code"] in _INPUT_ERROR_CODES
    else:
        assert report["command"] == "validate" and "result" in report


def _nodes(value, path=()):
    """Every (path, value) of a parsed JSON document, the root first."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _nodes(child, (*path, key))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(SPECS)),
    st.integers(0, 10**6),
    st.sampled_from([None, 0, 1.5, -1, True, "", "x", "*", [], {}, ["x"], {"x": 1}, [["x"]]]),
)
def test_specs_with_a_retyped_value_never_escape_as_tracebacks(name, where, replacement):
    data = json.loads(SPECS[name])
    paths = [path for path, _ in _nodes(data)]
    path = paths[where % len(paths)]
    if path:
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = replacement
    else:
        data = replacement
    assert_parse_agrees_with_the_scan(json.dumps(data))
    with tempfile.TemporaryDirectory() as tmp:
        spec = pathlib.Path(tmp) / "retyped.json"
        spec.write_text(json.dumps(data))
        code, out = run_quietly("validate", str(spec))
    report = json.loads(out)
    assert code in (0, 1, 2)
    if code == 2:
        assert report["error"]["code"] in _INPUT_ERROR_CODES


# ---------------------------------------------------------------------------
# renaming every name renames the report and nothing else


def write_renamed(path, cat: FiniteCategory, inverse: dict[str, str], ob: dict, mo: dict) -> None:
    """Save ``cat`` with every object x renamed ob[x] and every morphism m
    renamed mo[m]; the spec text survives a parse and dump unchanged."""
    renamed = FiniteCategory.build(
        [ob[x] for x in cat.objects],
        {mo[m]: (ob[cat.src[m]], ob[cat.tgt[m]]) for m in cat.morphisms},
        {ob[x]: mo[m] for x, m in cat.identity.items()},
        {(mo[g], mo[f]): mo[h] for (g, f), h in cat.table.items()},
    )
    text = dump_category(renamed, {mo[m]: mo[v] for m, v in inverse.items()})
    assert dump_category(*parse_category(text)) == text
    path.write_text(text, encoding="utf-8")


@pytest.mark.parametrize("name", ["i2", "z2", "g2"])
def test_renaming_every_name_renames_the_validate_report(datadir, tmp_path, name):
    cat, inverse = load_category(str(datadir / f"{name}.json"))
    # injective (the index is unique) onto names with a quote, a backslash,
    # spaces, control characters and non-ASCII text
    ob = {x: f'o{i} {x}"\\\x01\té' for i, x in enumerate(cat.objects)}
    mo = {m: f'm{i} {m}"\\\x1f\x7f ✓\U0001f600' for i, m in enumerate(cat.morphisms)}
    path = tmp_path / "renamed.json"
    write_renamed(path, cat, inverse, ob, mo)

    code, out = run_quietly("validate", str(datadir / f"{name}.json"))
    renamed_code, renamed_out = run_quietly("validate", str(path))
    before, after = json.loads(out), json.loads(renamed_out)
    assert renamed_code == code == 0
    assert after["violations"] == before["violations"] == []
    assert after["result"]["valid"] is before["result"]["valid"] is True
    assert after["result"]["objects"] == before["result"]["objects"]
    assert after["result"]["morphisms"] == before["result"]["morphisms"]
    assert sorted(after["result"]["idempotents"]) == sorted(mo[m] for m in before["result"]["idempotents"])
    assert after["result"]["inverse"] == {mo[m]: mo[v] for m, v in before["result"]["inverse"].items()}


# one prefix on every name keeps the sort order, so representatives and
# lists map one to one; derived names {a,b}, (x|e), (A|s) and (e|s|f) take
# it on each member and part
PREFIX = '"é'
RENAMED = ("i2", "z2", "g2")


def lift(value, names: set[str]):
    """``value`` with each name, plain or derived from plain names, prefixed;
    dict keys included."""
    if isinstance(value, list):
        return [lift(v, names) for v in value]
    if isinstance(value, dict):
        return {lift(k, names): lift(v, names) for k, v in value.items()}
    if not isinstance(value, str):
        return value
    if value in names:
        return PREFIX + value
    if value[:1] == "{" and value[-1:] == "}":
        members = value[1:-1].split(",")
        if all(m in names for m in members):
            return "{" + ",".join(PREFIX + m for m in members) + "}"
    if value[:1] == "(" and value[-1:] == ")":
        parts = value[1:-1].split("|")
        lifted = [lift(p, names) for p in parts]
        if len(parts) in (2, 3) and all(a != b for a, b in zip(lifted, parts)):
            return "(" + "|".join(lifted) + ")"
    return value


@pytest.mark.parametrize(
    "argv",
    [
        *(["cauchy", n] for n in RENAMED),
        *(["decompose", n] for n in RENAMED),
        *(["morita", a, b] for a in RENAMED for b in RENAMED),
        *(["bernoulli", n] for n in RENAMED),
        *(["bernoulli", n, "--circ"] for n in RENAMED),
        *(
            ["expand", n, "--variant", v]
            for n in RENAMED
            for v in ("global", "partial", "strict-global", "strict-partial")
        ),
    ],
    ids="-".join,
)
def test_renaming_every_name_renames_the_derived_reports(datadir, tmp_path, argv):
    command, *rest = argv
    names: set[str] = set()
    renamed: dict[str, str] = {}
    for name in {a for a in rest if a in RENAMED}:
        cat, inverse = load_category(str(datadir / f"{name}.json"))
        names |= {*cat.objects, *cat.morphisms}
        path = tmp_path / f"renamed_{name}.json"
        ob, mo = ({n: PREFIX + n for n in group} for group in (cat.objects, cat.morphisms))
        write_renamed(path, cat, inverse, ob, mo)
        renamed[name] = str(path)

    code, out = run_quietly(command, *(str(datadir / f"{a}.json") if a in renamed else a for a in rest))
    renamed_code, renamed_out = run_quietly(command, *(renamed.get(a, a) for a in rest))
    before, after = json.loads(out), json.loads(renamed_out)
    assert renamed_code == code
    assert after["violations"] == before["violations"] == []
    assert after["result"] == lift(before["result"], names)
    assert after["result"] != before["result"]


@pytest.mark.parametrize(
    "sub, sup, embedding",
    [
        pytest.param(sub, sup, embedding, id=f"{sub}-{sup}")
        for sub, sup, embedding in (
            ("t1", "g2", {"objects": {"*": "X"}, "morphisms": {"1": "1X"}}),
            ("t1", "z2", {"objects": {"*": "*"}, "morphisms": {"1": "e"}}),
            ("t1", "i2", {"objects": {"*": "*"}, "morphisms": {"1": "id"}}),
            ("z2", "i2", {"objects": {"*": "*"}, "morphisms": {"e": "id", "g": "swap"}}),
        )
    ],
)
def test_renaming_every_name_renames_the_enlargement_report(datadir, tmp_path, sub, sup, embedding):
    """Sub, sup and the embedding file renamed with one prefix: the report
    differs only in the names, witnesses included."""
    names: set[str] = set()
    paths: dict[str, tuple[str, str]] = {}
    for name in (sub, sup):
        cat, inverse = load_category(str(datadir / f"{name}.json"))
        names |= {*cat.objects, *cat.morphisms}
        path = tmp_path / f"renamed_{name}.json"
        ob, mo = ({n: PREFIX + n for n in group} for group in (cat.objects, cat.morphisms))
        write_renamed(path, cat, inverse, ob, mo)
        paths[name] = (str(datadir / f"{name}.json"), str(path))
    plain, renamed = tmp_path / "embedding.json", tmp_path / "renamed_embedding.json"
    plain.write_text(json.dumps(embedding), encoding="utf-8")
    renamed.write_text(
        json.dumps({k: {PREFIX + a: PREFIX + b for a, b in v.items()} for k, v in embedding.items()}),
        encoding="utf-8",
    )

    code, out = run_quietly("enlargement", paths[sub][0], paths[sup][0], "--embedding", str(plain))
    renamed_code, renamed_out = run_quietly("enlargement", paths[sub][1], paths[sup][1], "--embedding", str(renamed))
    before, after = json.loads(out), json.loads(renamed_out)
    assert renamed_code == code
    assert after["violations"] == before["violations"] == []
    assert after["result"] == lift(before["result"], names)
    if before["result"]["witnesses"]:
        assert after["result"] != before["result"]
