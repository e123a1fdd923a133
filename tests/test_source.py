"""Source rules: an internal invariant is a raised error, not an `assert`,
so that `python -O` keeps checking it, and not an `AssertionError`, which
is how a removed `assert` tends to come back."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qmink"


def test_the_package_has_no_assert_statement():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def raised_name(node) -> str | None:
    """The name a `raise` statement raises: `raise E` or `raise E(...)`."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_the_package_raises_no_assertion_error():
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.Raise)
             and raised_name(node) == "AssertionError"]
    assert found == []
