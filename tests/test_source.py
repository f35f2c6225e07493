"""Checks on the package source itself."""

import ast
import importlib
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



# definitions that no package code names, each with its callers
_NAMED_OUTSIDE_THE_PACKAGE = {
    "homology.exterior_ring_check": "acceptance criterion 4 and perfbench gl4-critical",
}


def test_every_definition_is_named_elsewhere_in_the_package():
    # every function, method and class defined in the package is named in
    # its code (as a name or an attribute, not in a docstring) outside its
    # own body; dunder methods are called by the language.  The match is by
    # name alone, so it cannot see an unused method whose name another
    # definition shares and is named, such as a to_json on one class of two
    defs, refs = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.append((path.stem, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                refs.append((path.stem, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((path.stem, node.attr, node.lineno))
    found = {f"{module}.{name}" for module, name, first, last in defs
             if not any(n == name and not (m == module and first <= line <= last)
                        for m, n, line in refs)}
    assert found == set(_NAMED_OUTSIDE_THE_PACKAGE), found


def test_every_name_the_benchmark_tracer_wraps_exists():
    # perfbench/tracing.py wraps package functions and methods by name from
    # outside the package: each (module, "name") or (module.Class, "name")
    # pair its install() lists, and each attribute it assigns, must resolve
    path = PACKAGE.parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(), str(path))
    install = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "install")

    def owner(node):
        if isinstance(node, ast.Name):
            return importlib.import_module(f"stabfold.{node.id}")
        return getattr(owner(node.value), node.attr)

    pairs = []
    for node in ast.walk(install):
        if (isinstance(node, ast.Tuple) and len(node.elts) >= 2
                and isinstance(node.elts[1], ast.Constant) and isinstance(node.elts[1].value, str)):
            pairs.append((node.elts[0], node.elts[1].value))
        elif isinstance(node, ast.Assign):
            pairs.extend((t.value, t.attr) for t in node.targets
                         if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Attribute))
    wrapped = {f"{ast.unparse(base)}.{attr}": (base, attr) for base, attr in pairs}
    assert {"homology.nullspace", "homology.matrix_rank", "homology.rref",
            "homology.reduce_against", "homology.block_matrix",
            "homology.BlockCohomology.__init__", "ravenel.Complex.d_monomial"} <= wrapped.keys()
    missing = [name for name, (base, attr) in wrapped.items() if not hasattr(owner(base), attr)]
    assert not missing, missing
