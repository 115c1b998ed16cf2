"""No function defined inside another in the package.

Every module of ``intpoints`` is parsed with ``ast``: no ``def`` or
``lambda`` may appear inside a function body.  A nested function that
closes over its parent's frame is a reference cycle, which outlives the
call until the cyclic collector runs; recursive searches run on explicit
stacks instead.
"""

import ast
from pathlib import Path

import pytest

import intpoints

MODULES = sorted(Path(intpoints.__file__).parent.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def nested_functions(name: str, source: str) -> list[str]:
    found = []
    for outer in ast.walk(ast.parse(source)):
        if isinstance(outer, FUNCTIONS):
            body = outer.body if isinstance(outer.body, list) else [outer.body]
            found += [
                f"{name}:{node.lineno}: {getattr(node, 'name', 'lambda')}"
                for statement in body
                for node in ast.walk(statement)
                if isinstance(node, FUNCTIONS)
            ]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_nested_function(path):
    assert nested_functions(path.name, path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "def f():\n    def g():\n        pass\n",
        "def f(xs):\n    return sorted(xs, key=lambda x: -x)\n",
        "class C:\n    def m(self):\n        if self:\n            async def g():\n                pass\n",
        "f = lambda: lambda: 0\n",
    ],
)
def test_planted_nested_function_is_found(source):
    assert nested_functions("example.py", source)


def test_flat_functions_pass():
    source = (
        "import functools\nkey = lambda x: -x\n"
        "@functools.cache\ndef f(n: int = 2) -> int:\n    return sum(i for i in range(n))\n"
        "class C:\n    def m(self):\n        return [i for i in range(3)]\n"
    )
    assert nested_functions("example.py", source) == []
