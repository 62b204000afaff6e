"""Source-level rules for the package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import centerlab
from centerlab.mpoly import MPoly

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


def test_no_function_local_imports_in_package():
    # imports sit at module top, so a module's dependencies are read off its
    # head; the one exception is numpy, loaded only where perturb uses it
    allowed = {("perturb.py", "numpy")}
    found = set()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or "."]
                else:
                    continue
                found.update(f"{path.name}:{node.lineno}:{name}" for name in names
                             if (path.name, name) not in allowed)
    assert sorted(found) == []


def test_numpy_not_imported_by_package_or_cli():
    # numpy is loaded only where it is used (the companion-matrix roots in
    # perturb); a stray top-level import would cost every run its set-up
    # time and memory
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent),
                                                      env.get("PYTHONPATH")]))
    code = "import sys, centerlab, centerlab.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_polynomial_representation_private_to_mpoly():
    # one module owns the data format of a polynomial (content times
    # primitive integer terms): no other module reads or writes those
    # attributes, by name or through getattr/setattr strings
    private = set(MPoly.__slots__) - {"vars"}
    assert private and all(name.startswith("_") for name in private)
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        if path.name == "mpoly.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.append(f"{path.name}:{node.lineno}:{node.attr}")
            elif isinstance(node, ast.Constant) and node.value in private:
                found.append(f"{path.name}:{node.lineno}:{node.value!r}")
    assert found == []
