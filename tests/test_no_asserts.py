"""Invariants in the package are explicit errors: `python -O` strips asserts."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ocnsim"


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SRC.is_dir() and not found, found
