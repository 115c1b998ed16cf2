"""The README's library quick tour and command lines match the package.

Each expression line of the tour whose comment states a value, such as
``verify(m).passed  # True``, is evaluated and its repr compared with the
comment.  Each command line of the Command line section is parsed, not
run, by the ``intpoints`` argument parser, and every ``--flag`` the
section names must be an option of some subcommand.  A name the package
no longer has, or a changed result, fails here instead of leaving the
README stale.
"""

import argparse
import ast
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from intpoints import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def command_line_section() -> str:
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    return section.split("\n## ", 1)[0]


def quick_tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_tour_runs_as_stated(capsys, heptagon1):
    source = quick_tour()
    lines = source.splitlines()
    namespace = {}
    stated, got = {}, {}
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        if isinstance(node, ast.Expr) and comment:
            stated[code] = comment
            got[code] = repr(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
    assert got == stated
    assert set(stated) == {
        "verify(m).passed", "minimum_diameter(4, 20)", "mod_max_general_position(13).size"
    }
    # e = embed(m)  # p3 = (32, 24)/10 = (16/5, 12/5), radicand 1
    e = namespace["e"]
    assert (e.points[2], e.k) == ((Fraction(16, 5), Fraction(12, 5)), 1)
    # print(found.rows)  # the unique heptagon at its diameter
    assert capsys.readouterr().out == f"{heptagon1.rows}\n"


def test_command_lines_parse():
    block = command_line_section().split("```sh\n", 1)[1].split("```", 1)[0]
    parser = cli.build_parser()
    commands = 0
    for line in block.splitlines():
        argv = shlex.split(line.removeprefix("PYTHONPATH=src python -m "), comments=True)
        assert argv[0] == "intpoints", line
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")
        commands += 1
    assert commands


def test_named_flags_exist():
    parser = cli.build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        option for sub in subcommands.choices.values() for option in sub._option_string_actions
    }
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", command_line_section()))
    assert named and named <= options, named - options
