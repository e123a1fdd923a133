"""Source rules: an internal invariant is a raised error, not an `assert`,
so that `python -O` keeps checking it."""

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
