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
