"""No unused imports in the package.

Every module of ``intpoints`` is parsed with ``ast``: each name an import
binds must be read somewhere in the module or be listed in its
``__all__``.  Code deleted from a module cannot leave its imports behind.
"""

import ast
from pathlib import Path

import pytest

import intpoints

MODULES = sorted(Path(intpoints.__file__).parent.glob("*.py"))
# (module, name) of each import the module keeps without reading it.  The
# benchmark's tracer wraps cli.pointset_characteristic by name; without the
# import that target reads MISSING and cli.record's self time loses its split.
KEPT_IMPORTS = {("cli.py", "pointset_characteristic")}


def unused_imports(name: str, source: str, kept=KEPT_IMPORTS) -> list[str]:
    tree = ast.parse(source)
    read = set()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
        elif isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    return [
        f"{name}:{line}: {binding}"
        for line, binding in bound
        if binding not in read and (name, binding) not in kept
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.name, path.read_text(encoding="utf-8")) == []


def test_kept_imports_are_the_only_unused_ones():
    found = set()
    for path in MODULES:
        for entry in unused_imports(path.name, path.read_text(encoding="utf-8"), kept=set()):
            found.add((path.name, entry.rpartition(": ")[2]))
    assert found == KEPT_IMPORTS


@pytest.mark.parametrize(
    "source",
    ["import math", "import os.path", "from math import gcd", "from .arith import x as y",
     "import math\nmath = 3", "def f():\n    from math import isqrt\n    return 1"],
)
def test_planted_unused_import_is_found(source):
    assert unused_imports("example.py", source)


def test_used_imports_pass():
    source = (
        "from __future__ import annotations\nimport os.path\nfrom math import gcd\n"
        "from .search import search as run\n__all__ = ['run']\n"
        "def f(n: int) -> int:\n    return gcd(n, 6) + len(os.path.sep)\n"
    )
    assert unused_imports("example.py", source) == []
