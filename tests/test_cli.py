"""CLI surface: normal forms, suite selection, exit codes, JSON contract."""

import argparse
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import qmink
from qmink.cli import build_parser, main
from qmink.ncalg import Presentation, StepLimitExceeded
from typed_builtins import MINKOWSKI


SCHEMA = json.loads(
    (resources.files("qmink.data") / "report.schema.json").read_text("utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


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


def test_a_file_name_too_long_for_the_system_is_no_such_file(capsys):
    name = "a" * 300  # ENAMETOOLONG from stat, not a missing file
    assert run(capsys, "normalize", name, "a") == (2, "", f"qmink: no such file: {name}\n")


def test_check_hopf_passes(capsys):
    code, out, _ = run(capsys, "check", "hopf")
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


# sha256 of suites.run_all(seed=1).to_json() as json.dumps writes it, with
# every check's residual dropped: the suites, check names, inputs, statuses
# and details, which must not change silently (residuals depend on libm).
REPORT_SHAPE_SHA256 = \
    "ac6783bd30bc6fbe6d40f0ddb1bd5f3803c4be6baa31196bd2d06bc66e991d20"


def test_report_shape_is_pinned():
    from qmink import suites
    doc = suites.run_all(seed=1).to_json()
    for report in doc["reports"]:
        for check in report["checks"]:
            check.pop("residual", None)
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == REPORT_SHAPE_SHA256


def test_report_all_json_validates_against_shipped_schema(capsys):
    code, out, _ = run(capsys, "report-all", "--samples", "100",
                       "--cocycle-samples", "200", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
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


def test_pq_convention_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "pq", "--pq-convention", "plain"])
    assert exc.value.code == 2


def long_options(parser) -> set:
    """Every --long option of parser and its subcommands, --help aside."""
    found = set()
    for action in parser._actions:
        found.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= long_options(sub)
    return found - {"--help"}


def test_readme_cli_section_names_every_flag():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    assert named == long_options(build_parser())


def test_readme_cli_examples_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line, comments=True) for line in block.splitlines()]
    examples = [argv for argv in examples if argv]
    assert examples and all(argv[0] == "qmink" for argv in examples)
    for argv in examples:
        build_parser().parse_args(argv[1:])  # exits 2 on a flag it does not take


# Every flag of some `check` subcommand, with a value for it.
CHECK_FLAGS = {"--file": "/nonexistent", "--algebra": "nope", "--p": "2",
                   "--q": "3", "--s": "0.7", "--radius": "2", "--samples": "0",
                   "--seed": "1", "--tol": "1e-12", "--format": "json"}


def check_flags(which) -> set:
    """The --long options of `qmink check WHICH`."""
    parser = build_parser()
    for name in ("check", which):
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        parser = sub.choices[name]
    return long_options(parser)


@pytest.mark.parametrize("which, flag", [
    (which, flag) for which in ("presentation", "hopf", "coaction", "cocycle", "pq")
    for flag in CHECK_FLAGS if flag not in check_flags(which)])
def test_a_flag_a_check_does_not_read_exits_2(capsys, which, flag):
    with pytest.raises(SystemExit) as exc:
        main(["check", which, flag, CHECK_FLAGS[flag]])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} " in captured.err
    assert captured.err.startswith(f"usage: qmink check {which} ")


def test_each_check_takes_only_the_flags_it_reads():
    taken = {which: check_flags(which) for which in
             ("presentation", "hopf", "coaction", "cocycle", "pq")}
    assert taken == {
        "presentation": {"--file", "--algebra", "--samples", "--seed", "--format"},
        "hopf": {"--seed", "--format"},
        "coaction": {"--seed", "--format"},
        "cocycle": {"--s", "--radius", "--samples", "--seed", "--tol", "--format"},
        "pq": {"--p", "--q", "--s", "--samples", "--seed", "--tol", "--format"}}
    assert sum(map(len, taken.values())) == 22


@pytest.mark.parametrize("value", ["-1e-3", "-1E2", "-2.5e+1", "-.5", "-3"])
def test_a_negative_value_may_follow_its_flag_as_a_word(capsys, value):
    """argparse alone reads a word such as -1e-3 as an unknown flag."""
    outputs = [run(capsys, "check", "cocycle", "--samples", "10", *flag_value,
                   "--format", "json")
               for flag_value in (("--s", value), (f"--s={value}",))]
    assert outputs[0] == outputs[1]
    code, out, err = outputs[0]
    assert code == 0 and err == ""
    assert json.loads(out)["reports"][0]["inputs"]["s_values"] == [float(value)]


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


@pytest.mark.parametrize("argv", [("normalize", "{}", "x"),
                                  ("check", "presentation", "--file", "{}"),
                                  ("normalize", "{}/bin.qalg", "x"),
                                  ("check", "presentation", "--file", "{}/bin.qalg")])
def test_unreadable_file_is_a_usage_error(tmp_path, capsys, argv):
    # a directory, and a file that is not UTF-8
    (tmp_path / "bin.qalg").write_bytes(b"\xffalgebra plane { gen u; }\n")
    argv = tuple(a.format(tmp_path) for a in argv)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    (line,) = err.splitlines()
    path = argv[1] if argv[0] == "normalize" else argv[-1]
    assert line.startswith(f"qmink: cannot read {path}: ")


@pytest.mark.parametrize("command", [("normalize", "{}", "d a"),
                                     ("check", "presentation", "--file", "{}")])
@pytest.mark.parametrize("path", ["/nonexistent/dir/lorentz.qalg", "./lorentz.qalg",
                                  "{tmp}/lorentz", "{tmp}/lorentz.qalg"])
def test_a_missing_path_with_a_directory_is_no_builtin(tmp_path, capsys,
                                                       monkeypatch, command, path):
    monkeypatch.chdir(tmp_path)
    path = path.format(tmp=tmp_path)
    code, out, err = run(capsys, *(a.format(path) for a in command))
    assert code == 2
    assert out == ""
    assert err == f"qmink: no such file: {path}\n"


@pytest.mark.parametrize("command", [("normalize", "{}", "u"),
                                     ("check", "presentation", "--file", "{}")])
@pytest.mark.parametrize("path", ["./bad.qalg", ".//bad.qalg", "{tmp}/./bad.qalg"])
def test_a_file_is_named_as_typed(tmp_path, capsys, monkeypatch, command, path):
    (tmp_path / "bad.qalg").write_text("algebra plane {\n  gen u v;\n  rel v u = ;\n}\n")
    monkeypatch.chdir(tmp_path)
    path = path.format(tmp=tmp_path)
    code, out, err = run(capsys, *(a.format(path) for a in command))
    assert (code, out) == (2, "")
    assert err == f"qmink: {path}:3:13: expected a term\n"


@pytest.mark.parametrize("name", ["lorentz", "lorentz.qalg"])
def test_check_presentation_reads_a_bare_builtin_name_as_normalize_does(
        capsys, name):
    code, out, _ = run(capsys, "normalize", name, "d a")
    assert (code, out) == (0, "1 + b c\n")
    code, out, _ = run(capsys, "check", "presentation", "--file", name,
                       "--samples", "20", "--format", "json")
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert [c["name"] for c in report["checks"]] == [
        "lorentz: termination", "lorentz: local confluence",
        "lorentz: dual-strategy normal forms"]
    assert (code, out) == run(capsys, "check", "presentation", "--algebra",
                              "lorentz", "--samples", "20", "--format", "json")[:2]


def test_a_file_in_the_working_directory_comes_before_a_builtin(
        tmp_path, capsys, monkeypatch):
    (tmp_path / "lorentz.qalg").write_text(
        "algebra plane {\n  gen u v;\n  rel v u = q^2 u v;\n}\n")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "normalize", "lorentz.qalg", "v u")
    assert (code, out) == (0, "q^2 u v\n")


def test_step_limit_overrun_exits_2(capsys, monkeypatch):
    def overrun(self, poly, **kwargs):
        raise StepLimitExceeded(f"normalization in {self.name} exceeded 10 steps")
    monkeypatch.setattr(Presentation, "normalize", overrun)
    code, out, err = run(capsys, "normalize", "lorentz", "d a")
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("qmink: normalization in ") and "exceeded 10 steps" in line


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


def test_check_presentation_unknown_algebra(tmp_path, capsys):
    code, _, err = run(capsys, "check", "presentation", "--algebra", "nope")
    assert code == 2
    f = tmp_path / "plane.qalg"
    f.write_text("algebra plane {\n  gen u v;\n  rel v u = q^2 u v;\n}\n")
    code, out, err = run(capsys, "check", "presentation", "--file", str(f),
                         "--algebra", "nope")
    assert code == 2
    assert err.strip() == \
        "qmink: file has no algebra named 'nope' (found: plane)"
    assert out == ""
    code, out, err2 = run(capsys, "normalize", str(f), "u", "--algebra", "nope")
    assert code == 2
    assert err2 == err  # one picker, one message


def test_failing_dual_strategy_check_names_its_first_word(tmp_path, capsys):
    # terminating but not confluent: x y z -> z z and x y z -> x x
    f = tmp_path / "nc.qalg"
    f.write_text("algebra nc {\n  gen x y z;\n  rel x y = z;\n  rel y z = x;\n}\n")
    code, out, _ = run(capsys, "check", "presentation", "--file", str(f),
                       "--samples", "200", "--format", "json")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["reports"][0]["checks"]}
    detail = checks["nc: dual-strategy normal forms"]["detail"]
    count, word, leftmost, other = re.fullmatch(
        r"(\d+) disagreements over 200 random words; "
        r"first at (.+): (.+) \(leftmost\) vs (.+) \(random\)", detail).groups()
    assert int(count) >= 1 and leftmost != other
    for expr, normal_form in ((word, leftmost), (leftmost, leftmost),
                              (other, other)):
        code, out, _ = run(capsys, "normalize", str(f), expr)
        assert code == 0
        assert out.strip() == normal_form
    # a passing oracle keeps its plain detail
    code, out, _ = run(capsys, "check", "presentation", "--samples", "20",
                       "--format", "json")
    assert code == 0
    details = [c["detail"] for c in json.loads(out)["reports"][0]["checks"]
               if c["name"].endswith("dual-strategy normal forms")]
    assert details == ["0 disagreements over 20 random words"] * 2


@pytest.mark.parametrize("argv", [
    ("check", "pq", "--samples", "0"),
    ("check", "pq", "--samples", "-5"),
    ("check", "presentation", "--samples", "0"),
    ("check", "cocycle", "--samples", "0"),
    ("report-all", "--samples", "0"),
    ("report-all", "--cocycle-samples", "0"),  # fails beside the forked suites
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


@pytest.mark.parametrize("radius", ["nan", "inf", "0", "-1"])
def test_cocycle_radius_must_be_finite_and_positive(capsys, radius):
    code, out, err = run(capsys, "check", "cocycle", "--radius", radius,
                         "--samples", "10", "--format", "json")
    assert code == 2
    assert "radius must be finite and > 0" in err
    assert out == ""


@pytest.mark.parametrize("p", ["1e100", "1e-160"])
def test_pq_parameters_outside_double_range_exit_2(capsys, p):
    code, out, err = run(capsys, "check", "pq", "--p", p, "--q", p,
                         "--samples", "10")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    (line,) = err.splitlines()
    value = repr(float(p))
    assert f"p={value}, q={value}" in line


@pytest.mark.parametrize("p, q", [("1e300", "1e300"), ("1e-300", "1e300")])
def test_pq_parameters_whose_ratio_or_product_leaves_double_range_exit_2(
        capsys, p, q):
    # p q overflows to inf, or p / q underflows to 0, before any logarithm
    code, out, err = run(capsys, "check", "pq", "--p", p, "--q", q,
                         "--samples", "10")
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"qmink: p={float(p)!r}, q={float(q)!r} is outside "
                           "the model's double-precision range (")


@pytest.mark.parametrize("argv", [["--seed", "1", "check", "hopf"],
                                  ["--seed=1", "check", "hopf"],
                                  ["--format", "json", "report-all"],
                                  ["check", "--seed", "1", "hopf"],
                                  ["check", "--format=json", "coaction"]])
def test_a_flag_before_the_command_is_named(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    nested = argv[0] == "check"
    flag = argv[nested].partition("=")[0]
    assert captured.err.splitlines()[-1] == (
        f"qmink check: error: {flag} goes after the check name" if nested
        else f"qmink: error: {flag} goes after the command")


def test_an_internal_fault_exits_3_and_names_itself_last(capsys, monkeypatch):
    import qmink.suites

    def broken():
        raise RuntimeError("the square lost a leg")

    monkeypatch.setattr(qmink.suites, "run_hopf_suite", broken)
    code, out, err = run(capsys, "check", "hopf")
    assert code == 3
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.splitlines()[-1] == (
        "qmink: internal error: RuntimeError: the square lost a leg")


@pytest.mark.parametrize("s", ["100", "-100", "89"])
def test_pq_deformation_outside_double_range_exits_2(capsys, s):
    code, out, err = run(capsys, "check", "pq", "--s", s, "--samples", "10")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert f"s={float(s)!r} is outside the model's double-precision range" in line


def test_non_finite_cocycle_residuals_fail(capsys):
    import random

    from qmink.cocycle import disk_points
    code, out, _ = run(capsys, "check", "cocycle", "--radius", "1e300",
                       "--samples", "5", "--format", "json")
    assert code == 1
    report = json.loads(out, parse_constant=reject_constant)
    jsonschema.validate(report, SCHEMA)
    assert report["status"] == "fail"
    first = disk_points(random.Random(0), 4, 1e300)
    for check in report["reports"][0]["checks"]:
        assert check["status"] == "fail"
        assert check["residual"] is None  # non-finite, written as null
        n = {"cocycle": 3, "sumup": 4, "omega": 2}[check["name"].split("-")[0]
                                                   .split("[")[0]]
        assert check["detail"] == \
            f"first non-finite at ({', '.join(map(repr, first[:n]))})"


@pytest.mark.parametrize("samples", [1, 1200])
def test_an_overflowing_cocycle_factor_fails_its_check(capsys, samples):
    """At radius 1e154 a phase t is finite but s t can overflow: that
    factor is NaN, so its check fails and names the first such sample."""
    import random

    from qmink.cocycle import IDENTITIES, disk_points
    code, out, err = run(capsys, "check", "cocycle", "--radius", "1e154",
                         "--samples", str(samples), "--format", "json")
    assert code == 1 and err == ""
    report = json.loads(out, parse_constant=reject_constant)
    jsonschema.validate(report, SCHEMA)
    checks = report["reports"][0]["checks"]
    assert len(checks) == 12 and all(c["status"] == "fail" for c in checks)
    points = disk_points(random.Random(0), 4 * samples, 1e154)
    identities = {identity.name: identity for identity in IDENTITIES}
    overflowed = 0
    for check in checks:
        name, part, s = re.fullmatch(r"(\S+)\[(\S+)\] \(s=(\S+)\)",
                                     check["name"]).groups()
        identity = identities[name]
        n, j = identity.npoints, identity.labels.index(part)
        sample = [points[i * n:(i + 1) * n] for i in range(samples)]
        overflow = [any(not math.isfinite(float(s) * t) for side in
                        identity.phases(*pts)[j] for t in side)
                    for pts in sample]
        if any(overflow):
            overflowed += 1
            first = sample[overflow.index(True)]
            assert check["residual"] is None
            assert check["detail"] == \
                f"first non-finite at ({', '.join(map(repr, first))})"
        else:
            assert check["detail"].startswith("worst at (")
    assert overflowed == (0 if samples == 1 else 12)


def _run_python(*argv):
    """Run a fresh interpreter with qmink importable; its completed process."""
    src = str(Path(qmink.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


# minkowski is derived from classical.qalg, whose twist reads the phases
@pytest.mark.parametrize("file, expression, normal_form", [
    ("lorentz", "d a", "1 + b c"), ("minkowski", "w x", "q^-4 x w")],
    ids=["lorentz", "minkowski"])
def test_normalize_loads_no_numeric_module(file, expression, normal_form):
    proc = _run_python("-c", (
        f"import sys; from qmink.cli import main; "
        f"main(['normalize', {file!r}, {expression!r}]); "
        "print([m for m in ('qmink.oplab', 'qmink.cocycle', 'qmink.suites', "
        "'qmink.reports', 'json') if m in sys.modules])"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [normal_form, "[]"]


# lorentz.qalg twists classical_lorentz, so it parses classical.qalg too
@pytest.mark.parametrize("algebra, files", [("classical_lorentz", 1),
                                            ("lorentz", 2)],
                         ids=["classical_lorentz", "lorentz"])
def test_one_builtin_algebra_parses_only_its_own_file(algebra, files):
    proc = _run_python("-c", (
        "import qmink.dsl; from qmink.cli import main; "
        f"code = main(['check', 'presentation', '--algebra', {algebra!r}, "
        "'--samples', '20']); "
        "print(code, qmink.dsl.builtin.cache_info().currsize)"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {files}"


# stdlib modules no command needs on its normal path (each costs start-up);
# only report-all forks and reads reports back through pickle
UNUSED_MODULES = ("dataclasses", "inspect", "typing", "traceback", "fractions",
                  "decimal", "pathlib", "importlib.resources", "pickle", "signal")
COMMANDS = {"normalize": (["normalize", "lorentz", "d a"], ()),
            "check hopf": (["check", "hopf"], ()),
            "check coaction": (["check", "coaction"], ()),
            "check presentation": (["check", "presentation", "--samples", "20"], ()),
            "report-all": (["report-all", "--samples", "5",
                            "--cocycle-samples", "5"], ("pickle", "signal"))}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_imports_only_what_it_uses(command):
    """Without `site`, which may import some of them first."""
    argv, allowed = COMMANDS[command]
    proc = _run_python("-S", "-c", (
        f"import sys; from qmink.cli import main; code = main({argv!r}); "
        f"print(code, [m for m in {UNUSED_MODULES!r} if m in sys.modules])"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {list(allowed)!r}"


def test_an_internal_error_in_a_fresh_interpreter_prints_its_traceback():
    proc = _run_python("-S", "-c", (
        "import sys, qmink.suites\n"
        "def broken():\n"
        "    raise RuntimeError('the square lost a leg')\n"
        "qmink.suites.run_hopf_suite = broken\n"
        "from qmink.cli import main\n"
        "sys.exit(main(['check', 'hopf']))"))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("Traceback (most recent call last):")
    assert 'File "<string>", line 3, in broken' in proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        "qmink: internal error: RuntimeError: the square lost a leg")


def test_a_check_prints_its_load_apart_from_its_own_time(capsys):
    code, out, _ = run(capsys, "check", "hopf")
    assert code == 0
    load, suite = out.splitlines()[:2]
    assert re.fullmatch(r"loaded lorentz, classical \(\d+ ms\)", load)
    assert re.fullmatch(r"suite hopf: PASS \(\d+ ms\)", suite)
    for argv, want in ((("check", "coaction"), "coaction, classical"),
                       (("check", "presentation", "--samples", "5"),
                        "lorentz, minkowski"),
                       (("check", "presentation", "--algebra", "minkowski",
                         "--samples", "5"), "minkowski"),
                       (("check", "presentation", "--file", "lorentz",
                         "--samples", "5"), "lorentz"),
                       (("report-all", "--samples", "5", "--cocycle-samples", "5"),
                        "lorentz, minkowski, coaction, classical")):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert re.fullmatch(rf"loaded {want} \(\d+ ms\)", out.splitlines()[0])
    code, out, _ = run(capsys, "check", "cocycle", "--samples", "5")
    assert out.startswith("suite cocycle: PASS (")
    code, out, _ = run(capsys, "check", "hopf", "--format", "json")
    assert json.loads(out)["reports"][0]["suite"] == "hopf"


def test_demo_script_runs_and_passes():
    proc = _run_python(str(Path(__file__).parents[1] / "scripts" / "demo.py"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "overall: PASS"


# -- extreme numeric flags ---------------------------------------------------------

EXTREMES = ("nan", "inf", "-inf", "0", "-1", "1e300")
SMALL_RUNS = {"check cocycle": ("check", "cocycle", "--samples", "5"),
              "check pq": ("check", "pq", "--samples", "5"),
              "report-all": ("report-all", "--samples", "5",
                             "--cocycle-samples", "5")}
# exit code per value of EXTREMES.  A value the flag rejects exits 2; a value
# it accepts gets the verdict of the checks: s = 0 and s = -1 are valid
# deformations, and every residual is below a tolerance of 1e300.  A sample
# count below 1 is test_sample_count_below_one_exits_2.
EXPECTED_EXIT = {
    ("check cocycle", "--tol"): (2, 2, 2, 2, 2, 0),
    ("check pq", "--tol"): (2, 2, 2, 2, 2, 0),
    ("report-all", "--tol"): (2, 2, 2, 2, 2, 0),
    ("check cocycle", "--radius"): (2, 2, 2, 2, 2, 1),
    ("check cocycle", "--s"): (2, 2, 2, 0, 0, 1),
    ("check pq", "--s"): (2, 2, 2, 0, 0, 2),
    ("check pq", "--p"): (2, 2, 2, 2, 2, 2),
    ("check pq", "--q"): (2, 2, 2, 2, 2, 2),
}


@pytest.mark.parametrize("command, flag, value, expected", [
    (command, flag, value, codes[k])
    for (command, flag), codes in EXPECTED_EXIT.items()
    for k, value in enumerate(EXTREMES)])
def test_extreme_numeric_flags_never_raise(
        capsys, command, flag, value, expected):
    argv = [*SMALL_RUNS[command], f"{flag}={value}", "--format", "json"]
    if flag in ("--p", "--q"):  # the other parameter of the pair is 1
        argv.append("--q=1" if flag == "--p" else "--p=1")
    code, out, err = run(capsys, *argv)  # raises nothing
    assert code == expected
    if code == 2:
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("qmink: ")
        assert repr(float(value)) in line
        return
    doc = json.loads(out, parse_constant=reject_constant)
    jsonschema.validate(doc, SCHEMA)
    assert doc["status"] == ("pass" if code == 0 else "fail")


# -- one meaning per .qalg text ----------------------------------------------------

DATA = Path(qmink.__file__).parent / "data"


@pytest.mark.parametrize("name, algebra, expression", [
    ("lorentz", "lorentz", "a' d'"),
    ("minkowski", "minkowski", "w x w'"),
    ("coaction", "lorentz", "c' b' d' a'"),
    ("classical", "classical_lorentz", "d' a'")])
def test_a_shipped_file_means_the_same_by_path_and_by_name(
        capsys, name, algebra, expression):
    path = str(DATA / f"{name}.qalg")
    for argv in (["normalize", "{}", expression, "--algebra", algebra],
                 ["check", "presentation", "--file", "{}", "--samples", "20",
                  "--format", "json"]):
        by_path = run(capsys, *(a.format(path) for a in argv))
        assert by_path == run(capsys, *(a.format(name) for a in argv))
        assert by_path[0] == 0
    if name == "lorentz":
        assert run(capsys, "normalize", path, expression)[1] == "1 + b' c'\n"
        doc = json.loads(run(capsys, "check", "presentation", "--file", path,
                             "--samples", "20", "--format", "json")[1])
        checks = doc["reports"][0]["checks"]
        assert [c["detail"] for c in checks[:2]] == [
            "30 rules", "0 unresolved critical pairs"]


def test_a_star_inconsistent_file_exits_2_with_one_located_line(tmp_path, capsys):
    path = tmp_path / "mutated.qalg"
    path.write_text(MINKOWSKI.replace("rel w x = q^-4 x w;", "rel w x = q^4 x w;"))
    for argv in (["check", "presentation", "--file", str(path)],
                 ["normalize", str(path), "x"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (f"qmink: {path}:1:9: star closure of minkowski: cannot "
                       "orient (1 - q^8) x w' = 0: its leading coefficient "
                       "1 - q^8 is not invertible\n")


def test_a_copied_morphism_of_the_wrong_shape_exits_2(tmp_path, capsys):
    """Delta's images are over classical_lorentz, not minkowski: a usage
    error at the copied name, not the classical-limit check's internal one."""
    path = tmp_path / "copy.qalg"
    path.write_text("use minkowski, lorentz;\nmorphism D : minkowski -> "
                    "minkowski @ lorentz = Delta of classical;\n")
    code, out, err = run(capsys, "normalize", str(path), "x", "--algebra",
                         "minkowski")
    assert (code, out) == (2, "")
    assert err == (f"qmink: {path}:2:49: minkowski and classical_lorentz do "
                   "not list the same generators\n")


# -- a reader that leaves early ------------------------------------------------------


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv, verdict", [
    (["normalize", "lorentz", "d a"], 0),
    (["check", "hopf"], 0),
    (["check", "pq", "--p", "2", "--q", "3", "--samples", "5",
      "--tol", "1e-300"], 1)])
def test_a_closed_stdout_keeps_the_verdict_and_says_nothing(
        capsys, monkeypatch, argv, verdict):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(argv)
    assert code == verdict
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["check", "hopf"], ["normalize", "lorentz", "d a"]])
def test_a_reader_that_closed_the_pipe_first_gets_the_verdict(argv):
    src = str(Path(qmink.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.Popen([sys.executable, "-m", "qmink.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    proc.stdout.close()  # before qmink writes a byte
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (0, b"")


def test_a_square_that_does_not_type_check_is_an_internal_error(
        capsys, monkeypatch):
    from qmink import coact
    from qmink.dsl import builtin
    square = coact.check_cocommutativity_square
    monkeypatch.setattr(coact, "check_cocommutativity_square", lambda m, comult:
                        square(m, builtin("coaction").morphism("DeltaH")))
    code, out, err = run(capsys, "check", "hopf")
    assert (code, out) == (3, "")
    assert err.splitlines()[-1] == ("qmink: internal error: RuntimeError: "
                                    "composition square does not type-check")
