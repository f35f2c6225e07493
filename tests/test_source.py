"""Checks on the package source itself."""

import ast
from pathlib import Path

import stabfold

PACKAGE = Path(stabfold.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, and a correctness check must not
    # vanish with them: the package raises explicitly instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
