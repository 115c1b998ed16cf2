"""No floating point anywhere in the package.

Every module of ``intpoints`` is parsed with ``ast`` and checked for the
constructs that bring a float in: a float literal, the name ``float``, a
``math`` function other than the exact integer ones, and any true division
``/``.
"""

import ast
from pathlib import Path

import pytest

import intpoints

MODULES = sorted(Path(intpoints.__file__).parent.glob("*.py"))
EXACT_MATH = {"isqrt", "gcd", "lcm"}


def float_uses(name: str, source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"{name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{where}: name float")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in EXACT_MATH
        ):
            found.append(f"{where}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{where}: math.{a.name}" for a in node.names if a.name not in EXACT_MATH]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{where}: true division {ast.get_source_segment(source, node)}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_float(path):
    assert float_uses(path.name, path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    ["x = 0.5", "x = 2j", "y = float(3)", "import math\ny = math.sqrt(2)",
     "from math import log2", "y = 3 / 2", "y = 6\ny /= 2"],
)
def test_each_float_source_is_found(source):
    assert float_uses("example.py", source)


def test_exact_source_passes():
    source = "import math\nfrom math import isqrt\ny = math.gcd(4, 6) // 2 + isqrt(9)"
    assert float_uses("example.py", source) == []
