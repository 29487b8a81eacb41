"""The command-line interface: reports, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

from invcat import (
    cyclic_group_2,
    find_inverse_structure,
    full_transformation_monoid_2,
    load_category,
    save_category,
    symmetric_inverse_monoid_2,
    szendrei,
    trivial_category,
    two_object_groupoid,
)
from invcat.cli import main


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


def test_bad_max_elements_env_is_a_parse_error(datadir, capsys, monkeypatch):
    for raw in ("abc", "1.5", "0", "-3"):
        monkeypatch.setenv("INVCAT_MAX_ELEMENTS", raw)
        code, report, err = run(capsys, "expand", str(datadir / "i2.json"))
        assert code == 2
        assert report["command"] == "expand"
        assert report["error"]["code"] == "PARSE_ERROR"
        assert report["error"]["details"] == {"value": raw, "variable": "INVCAT_MAX_ELEMENTS"}
        assert "Traceback" not in err
