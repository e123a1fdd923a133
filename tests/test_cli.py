"""CLI surface: normal forms, suite selection, exit codes, JSON contract."""

import json
from importlib import resources

import jsonschema
import pytest

from qmink.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_determinant(capsys):
    code, out, _ = run(capsys, "normalize", "lorentz.qalg", "d a")
    assert code == 0
    assert out.strip() == "1 + b c"


def test_normalize_minkowski_pair(capsys):
    code, out, _ = run(capsys, "normalize", "minkowski.qalg", "w x")
    assert code == 0
    assert out.strip() == "q^-4 x w"


def test_normalize_builtin_name_without_suffix(capsys):
    code, out, _ = run(capsys, "normalize", "lorentz", "b a")
    assert code == 0
    assert out.strip() == "a b"


def test_normalize_user_file(tmp_path, capsys):
    src = "algebra plane {\n  gen u v;\n  rel v u = q^2 u v;\n}\n"
    f = tmp_path / "plane.qalg"
    f.write_text(src)
    code, out, _ = run(capsys, "normalize", str(f), "v u")
    assert code == 0
    assert out.strip() == "q^2 u v"


def test_malformed_expression_exits_2(capsys):
    code, _, err = run(capsys, "normalize", "lorentz.qalg", "d (")
    assert code == 2
    assert "qmink:" in err


def test_unknown_file_exits_2(capsys):
    code, _, err = run(capsys, "normalize", "nowhere.qalg", "a")
    assert code == 2


def test_check_hopf_passes(capsys):
    code, out, _ = run(capsys, "check", "hopf", "--algebra", "lorentz")
    assert code == 0
    assert "PASS" in out


def test_check_pq_json(capsys):
    code, out, _ = run(capsys, "check", "pq", "--p", "2", "--q", "3",
                       "--seed", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    for check in doc["reports"][0]["checks"]:
        if "residual" in check:
            assert check["residual"] < 1e-12 or "contraction" in check["name"]


def test_check_cocycle(capsys):
    code, out, _ = run(capsys, "check", "cocycle", "--s", "0.7",
                       "--samples", "10000", "--seed", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    residuals = [c["residual"] for c in doc["reports"][0]["checks"]]
    assert residuals and max(residuals) < 1e-12


def test_check_presentation(capsys):
    code, out, _ = run(capsys, "check", "presentation", "--samples", "100")
    assert code == 0


def test_report_all_is_byte_deterministic(capsys):
    args = ("report-all", "--samples", "200", "--cocycle-samples", "500",
            "--seed", "11", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_report_all_json_validates_against_shipped_schema(capsys):
    code, out, _ = run(capsys, "report-all", "--samples", "100",
                       "--cocycle-samples", "200", "--format", "json")
    assert code == 0
    schema = json.loads(
        (resources.files("qmink.data") / "report.schema.json").read_text("utf-8"))
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert {r["suite"] for r in doc["reports"]} == \
        {"presentation", "hopf", "coaction", "cocycle", "pq"}
    assert [r["suite"] for r in doc["reports"]] == \
        ["presentation", "hopf", "coaction", "cocycle", "pq"]
    assert doc["seed"] == 0


def test_failing_suite_gives_exit_1(capsys):
    # an impossible tolerance forces numeric checks to fail
    code, out, _ = run(capsys, "check", "cocycle", "--s", "0.7",
                       "--samples", "50", "--tol", "1e-30")
    assert code == 1
    assert "FAIL" in out


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "everything"])
    assert exc.value.code == 2


def test_pq_requires_both_parameters(capsys):
    code, _, err = run(capsys, "check", "pq", "--p", "2")
    assert code == 2
    assert "--p and --q" in err


def test_check_presentation_on_user_file(tmp_path, capsys):
    src = "algebra plane {\n  gen u v;\n  rel v u = q^2 u v;\n}\n"
    f = tmp_path / "plane.qalg"
    f.write_text(src)
    code, out, _ = run(capsys, "check", "presentation", "--file", str(f),
                       "--samples", "50")
    assert code == 0
    assert "plane: local confluence" in out


def test_check_presentation_on_file_without_algebra_exits_2(tmp_path, capsys):
    f = tmp_path / "empty.qalg"
    f.write_text("# no algebra here\n")
    code, out, err = run(capsys, "check", "presentation", "--file", str(f))
    assert code == 2
    assert "declares no algebra" in err
    assert "PASS" not in out


def test_normalize_on_file_without_algebra_exits_2(tmp_path, capsys):
    f = tmp_path / "empty.qalg"
    f.write_text("")
    code, out, err = run(capsys, "normalize", str(f), "a")
    assert code == 2
    assert "declares no algebra" in err
    assert out == ""


def test_algebras_imported_with_use_are_in_the_file_scope(tmp_path, capsys):
    f = tmp_path / "uses.qalg"
    f.write_text("use lorentz;\n")
    code, out, _ = run(capsys, "normalize", str(f), "d a")
    assert code == 0
    assert out.strip() == "1 + b c"
    code, out, _ = run(capsys, "check", "presentation", "--file", str(f),
                       "--samples", "20")
    assert code == 0
    assert "lorentz: local confluence" in out


def test_check_presentation_single_builtin_algebra(capsys):
    code, out, _ = run(capsys, "check", "presentation", "--algebra",
                       "classical_lorentz", "--samples", "50")
    assert code == 0
    assert "classical_lorentz: local confluence" in out
    assert "minkowski" not in out


def test_check_presentation_unknown_algebra(capsys):
    code, _, err = run(capsys, "check", "presentation", "--algebra", "nope")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("check", "pq", "--samples", "0"),
    ("check", "pq", "--samples", "-5"),
    ("check", "presentation", "--samples", "0"),
    ("check", "cocycle", "--samples", "0"),
    ("report-all", "--samples", "0"),
])
def test_sample_count_below_one_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "samples must be >= 1" in err
    assert "PASS" not in out


def test_samples_default_per_suite(capsys):
    code, out, _ = run(capsys, "check", "cocycle", "--s", "0.7", "--format", "json")
    assert code == 0
    assert json.loads(out)["reports"][0]["inputs"]["samples"] == 10000
    code, out, _ = run(capsys, "check", "pq", "--p", "1", "--q", "1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["reports"][0]["inputs"]["samples"] == 1000
