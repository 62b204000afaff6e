"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import centerlab

PACKAGE_DIR = Path(centerlab.__file__).parent


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no correctness check may live in one
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
