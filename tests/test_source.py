"""Checks on the package source itself."""

import ast
import sys
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


def test_package_imports_only_the_standard_library():
    # the package depends on nothing outside the standard library: every
    # import is relative, of stabfold itself, or of a standard module
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "stabfold" and top not in sys.stdlib_module_names:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found
