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
    # head
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
                found.update(f"{path.name}:{node.lineno}:{name}" for name in names)
    assert sorted(found) == []


def test_numpy_not_imported_by_package_or_cli():
    # numpy is not a runtime dependency: every univariate root goes through
    # the exact integer layer in realroots, and a stray import would cost
    # every run its set-up time and memory
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent),
                                                      env.get("PYTHONPATH")]))
    code = "import sys, centerlab, centerlab.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_realroots_imports_nothing_from_the_package():
    # realroots is the univariate layer under mpoly (whose gcds it takes), so
    # it may not import a package module: that would be an import cycle
    tree = ast.parse((PACKAGE_DIR / "realroots.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0]
                                                 == "centerlab"):
            found.append(f"{node.lineno}:{'.' * node.level}{node.module or ''}")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}:{alias.name}" for alias in node.names
                      if alias.name.split(".")[0] == "centerlab"]
    assert found == []


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


def _mpoly_private_reads(source):
    """``file:line:name`` for each underscore name (not a dunder) that the
    module source imports from ``centerlab.mpoly``, or reads as an attribute
    of that module or of a name imported from it, or passes to
    getattr/setattr/hasattr on such a name."""
    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    def dotted(node):
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    tree = ast.parse(source)
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("centerlab.mpoly", "mpoly") and node.level in (0, 1):
                for alias in node.names:
                    if private(alias.name):
                        found.append(f"{node.lineno}:{alias.name}")
                    bound.add(alias.asname or alias.name)
            elif node.module in ("centerlab", None):
                bound.update(alias.asname or alias.name for alias in node.names
                             if alias.name == "mpoly")
        elif isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name for alias in node.names
                         if alias.name == "centerlab.mpoly")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and dotted(node.value) in bound):
            found.append(f"{node.lineno}:{node.attr}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "setattr", "hasattr") and len(node.args) > 1
              and dotted(node.args[0]) in bound and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str) and private(node.args[1].value)):
            found.append(f"{node.lineno}:{node.args[1].value}")
    return found


def test_mpoly_private_names_read_only_by_mpoly():
    # the packed monomial keys (their layout, the pack/unpack helpers, the
    # field width and guard bits) and mpoly's other private helpers stay
    # inside mpoly.py; every other module goes through the tuple edge
    caught = [
        "from .mpoly import MPoly, _keys\n",
        "from centerlab.mpoly import _CAP as cap\n",
        "from . import mpoly\nmpoly._W\n",
        "import centerlab.mpoly\ncenterlab.mpoly._MASK\n",
        "import centerlab.mpoly as m\nm._keys(3)\n",
        "from .mpoly import MPoly\nMPoly._of((), 1, 1, {})\n",
        "from .mpoly import MPoly as P\ngetattr(P, '_reduced')\n",
    ]
    assert all(_mpoly_private_reads(src) for src in caught)
    assert _mpoly_private_reads("from .mpoly import MPoly\nMPoly.__mul__\nMPoly.zero(())\n") == []
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        if path.name != "mpoly.py":
            found += [f"{path.name}:{hit}" for hit in _mpoly_private_reads(path.read_text())]
    assert found == []


def _unused_imports(source):
    """``line:name`` for each name a module source imports (``__future__``
    aside) and never reads, counting names inside string annotations."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    trees = [tree] + [ast.parse(a.value, mode="eval") for a in annotations
                      if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    used = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    return [f"{line}:{name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports_in_package():
    # every import of a module is read there; __init__.py imports to re-export
    caught = [
        "import os\n",
        "import os.path\nx = 1\n",
        "from typing import List\nx: int = 1\n",
        "from .mpoly import MPoly, Rat\nMPoly.zero(())\n",
        "import numpy as np\nnumpy = 1\nnumpy\n",
    ]
    assert all(_unused_imports(src) for src in caught)
    kept = [
        "from __future__ import annotations\n",
        "import os.path\nos.path.join\n",
        "from typing import List\ndef f(a: 'List[int]') -> None: ...\n",
        "from .mpoly import MPoly as P\nclass C(P): ...\n",
    ]
    assert not any(_unused_imports(src) for src in kept)
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        if path.name != "__init__.py":
            found += [f"{path.name}:{hit}" for hit in _unused_imports(path.read_text())]
    assert found == []


def _exponent_layout_reads(source):
    """``line:what`` for each read of the ``.terms`` view and each ``.index``
    call on a variable table: a name ``vars`` or ``table`` (or one ending in
    ``_vars`` or ``_table``) or a ``.vars`` attribute."""
    def table(node):
        if isinstance(node, ast.Name):
            return node.id in ("vars", "table") or node.id.endswith(("_vars", "_table"))
        return isinstance(node, ast.Attribute) and node.attr == "vars"

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "terms":
            found.append(f"{node.lineno}:.terms")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "index" and table(node.func.value)):
            found.append(f"{node.lineno}:.index")
    return found


def test_exponent_layout_read_only_by_mpoly():
    # exponent tuples are mpoly's edge: other modules group terms with
    # coefficients_in / coefficients_in_vars or take coefficient_list, and
    # never look a variable up by its table position
    caught = [
        "for e, c in p.terms.items(): pass\n",
        "n = len(s.P.terms)\n",
        "i = vars.index('x')\n",
        "i = table.index('y')\n",
        "i = cs_table.index('c')\n",
        "i = p.vars.index('x')\n",
        "i = s.P.vars.index('eps')\n",
    ]
    assert all(_exponent_layout_reads(src) for src in caught)
    kept = [
        "p.sorted_terms()\n",
        "terms = {}\nterms.items()\n",
        "names.index('x')\n",
        "'x' in p.vars\n",
        "p.coefficient_list('y', {'x': 1})\n",
        "d = {'terms': 1}\n",
    ]
    assert not any(_exponent_layout_reads(src) for src in kept)
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        if path.name != "mpoly.py":
            found += [f"{path.name}:{hit}" for hit in _exponent_layout_reads(path.read_text())]
    assert found == []


def _unnamed_public_definitions(sources):
    """``module:name`` for each public module-level function or class of the
    sources (module file name -> text) that no module but ``__init__.py``
    names, as a name, an attribute or an imported name, and that
    ``__init__.py`` does not import to re-export; and ``module:Class.name``
    for each public method or property of a module-level class whose name
    no module but ``__init__.py`` names."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined, methods, named, exported = [], [], set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, functions + (ast.ClassDef,)) and not node.name.startswith("_"):
                defined.append(f"{module}:{node.name}")
            if isinstance(node, ast.ClassDef):
                methods += [f"{module}:{node.name}.{m.name}" for m in node.body
                            if isinstance(m, functions) and not m.name.startswith("_")]
        for node in ast.walk(tree):
            if module == "__init__.py":
                if isinstance(node, ast.ImportFrom):
                    exported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    return ([d for d in defined if d.split(":")[1] not in named | exported]
            + [m for m in methods if m.split(".")[-1] not in named])


# public names that no package module calls yet, each with its reason
UNNAMED_PUBLIC_ALLOWED = {
    "liapunov.py:verify_backsubstitution":
        "test oracle of the back-substitution identity, to be run from the CLI as a check",
    "ratfunc.py:laurent_resum":
        "test oracle of the Laurent expansion, to be run from the CLI as a check",
    "perturb.py:check_no_vanishing_singularities":
        "test oracle of the no-collapse condition, to be run from the CLI as a check",
}


def test_every_public_definition_is_named_by_the_package():
    # a public function or class that no module uses and __init__.py does not
    # export is dead code or test-only API; the few kept on purpose are listed
    caught = [
        {"a.py": "def helper(): ...\n"},
        {"a.py": "class Report: ...\n", "b.py": "from .a import other\nother()\n"},
        {"a.py": "def f(): ...\n", "__init__.py": "from . import a\na.f\n"},
        {"a.py": "async def f(): ...\n", "b.py": "'f'\n"},
        {"a.py": "class C:\n    def helper(self): ...\nC()\n"},
        {"a.py": "class C:\n    @property\n    def end(self): ...\nC()\n",
         "__init__.py": "from .a import C\nC().end\n"},
        {"a.py": "class _C:\n    def f(self): ...\n_C()\n"},
    ]
    assert all(_unnamed_public_definitions(src) for src in caught)
    kept = [
        {"a.py": "def _private(): ...\n"},
        {"a.py": "def f(): ...\nf()\n"},
        {"a.py": "def f(): ...\n", "b.py": "from .a import f\n"},
        {"a.py": "class C: ...\n", "b.py": "from . import a\na.C()\n"},
        {"a.py": "def f(): ...\n", "__init__.py": "from .a import f\n"},
        {"a.py": "def f(): ...\n", "b.py": "def g(x=f): ...\n", "__init__.py": "from .b import g\n"},
        {"a.py": "class C:\n    def f(self): ...\n    def _g(self): ...\n    def __len__(self): ...\n",
         "b.py": "from .a import C\nC().f()\n"},
        {"a.py": "class C:\n    @property\n    def end(self): ...\n    def f(self):\n        self.end\n"
                 "C().f()\n"},
    ]
    assert not any(_unnamed_public_definitions(src) for src in kept)
    sources = {path.name: path.read_text() for path in sorted(PACKAGE_DIR.rglob("*.py"))}
    assert sorted(_unnamed_public_definitions(sources)) == sorted(UNNAMED_PUBLIC_ALLOWED)


def _unread_private_definitions(sources):
    """``module:name`` for each private (underscore, not dunder) module-level
    function and ``module:Class.name`` for each private method of a
    module-level class of the sources (module file name -> text) whose name
    no module reads, as a name, an attribute or a string, outside its own
    body."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    def reads(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                yield sub.value
            elif isinstance(sub, ast.alias):
                yield sub.name

    defined, read_by = [], {}   # read_by: name -> the definitions that read it
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owned = [(node.name, node)] if isinstance(node, functions) else []
            if isinstance(node, ast.ClassDef):
                owned = [(f"{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, functions)]
                for m in node.body:
                    if not isinstance(m, functions):
                        for name in reads(m):
                            read_by.setdefault(name, set()).add(None)
                for deco in node.decorator_list + node.bases:
                    for name in reads(deco):
                        read_by.setdefault(name, set()).add(None)
            elif not owned:
                for name in reads(node):
                    read_by.setdefault(name, set()).add(None)
            for qual, func in owned:
                key = f"{module}:{qual}"
                if private(func.name):
                    defined.append((key, func.name))
                for name in reads(func):
                    read_by.setdefault(name, set()).add(key)
    return [key for key, name in defined if not read_by.get(name, set()) - {key}]


def test_every_private_definition_is_read_by_the_package():
    # a private helper that no package module calls is dead code or kept only
    # for tests, which can hold their own copy
    caught = [
        {"a.py": "def _helper(): ...\n"},
        {"a.py": "class C:\n    @staticmethod\n    def _key(e): ...\nC()\n"},
        {"a.py": "def _walk(n):\n    return _walk(n - 1)\n"},
        {"a.py": "def _f(): ...\n", "b.py": "def g():\n    return 1\ng()\n"},
    ]
    assert all(_unread_private_definitions(src) for src in caught)
    kept = [
        {"a.py": "def f(): ...\n"},
        {"a.py": "def _f(): ...\ndef g():\n    return _f()\n"},
        {"a.py": "def _f(): ...\n", "b.py": "from .a import _f\n"},
        {"a.py": "class C:\n    def _g(self): ...\n    def f(self):\n        self._g()\n"},
        {"a.py": "class C:\n    def __len__(self): ...\n"},
        {"a.py": "def _f(): ...\nTABLE = {'f': _f}\n"},
        {"a.py": "class C:\n    def _g(self): ...\n    h = _g\n"},
    ]
    assert not any(_unread_private_definitions(src) for src in kept)
    sources = {path.name: path.read_text() for path in sorted(PACKAGE_DIR.rglob("*.py"))}
    assert _unread_private_definitions(sources) == []


def _opens_without_encoding(source):
    """``line`` for each call of ``open`` (the builtin or an ``.open``
    method) in text mode that names no ``encoding``; a mode given as a
    string constant with ``b`` in it is binary and needs none."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not ((isinstance(func, ast.Name) and func.id == "open")
                or (isinstance(func, ast.Attribute) and func.attr == "open")):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        # the builtin takes the mode second, a Path's open first
        positional = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
        mode = keywords.get("mode", positional[0] if positional else None)
        if (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and "b" in mode.value):
            continue
        if "encoding" not in keywords:
            found.append(f"{node.lineno}")
    return found


def test_every_open_in_package_names_its_encoding():
    # system files and reports are UTF-8 whatever the locale, so no text-mode
    # open may fall back to the locale's encoding
    caught = [
        "open(path)\n",
        "with open(path, 'w') as fh: pass\n",
        "path.open()\n",
        "open(path, mode='r', errors='strict')\n",
        "io.open(path, 'a')\n",
    ]
    assert all(_opens_without_encoding(src) for src in caught)
    kept = [
        "open(path, encoding='utf-8')\n",
        "with open(path, 'w', encoding='utf-8') as fh: pass\n",
        "open(path, 'rb')\n",
        "path.open('wb')\n",
        "open(path, mode='rb')\n",
        "reopen(path)\n",
    ]
    assert not any(_opens_without_encoding(src) for src in kept)
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        found += [f"{path.name}:{hit}" for hit in _opens_without_encoding(path.read_text())]
    assert found == []
