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


def test_no_environment_variables_read_in_package():
    # the program's behaviour is set by its arguments alone: no module may
    # read os.environ or os.getenv
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno}" for alias in node.names
                          if alias.name in ("environ", "getenv")]
    assert found == []
