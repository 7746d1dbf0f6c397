"""Static rules on the package source."""

import ast
from pathlib import Path

import csidhsim

SRC = Path(csidhsim.__file__).parent


def test_src_has_no_assert_statements():
    # `python -O` strips asserts, so runtime invariants must raise explicitly.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_src_has_no_imports_inside_functions():
    # A function-level import hides a dependency (and any import cycle it
    # papers over) from the top of the module.
    found = [f"{path.name}:{inner.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for inner in ast.walk(node)
             if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert found == []
