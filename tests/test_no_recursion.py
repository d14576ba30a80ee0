"""The README says the syntax module, the kernel compiler, the
translations and the frame enumeration use no recursion, so formulas
nested to any depth go through them.  This test reads the four modules
with ``ast`` and fails if a function calls itself by name, directly or
from a function nested in it.

Mutual recursion (f calls g, g calls f) and calls through another name
(an alias, an attribute, a function passed as an argument) are out of
its reach.
"""

import ast
from pathlib import Path

import pytest

import stitkit

MODULES = ("syntax.py", "kernel.py", "solver.py", "translate.py")


def self_calls(source):
    """(function name, line) of each call of a function to its own name
    inside its body."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.extend((node.name, sub.lineno) for sub in ast.walk(node)
                       if isinstance(sub, ast.Call)
                       and isinstance(sub.func, ast.Name)
                       and sub.func.id == node.name)
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_function_calls_itself(module):
    path = Path(stitkit.__file__).parent / module
    assert self_calls(path.read_text()) == []


def test_self_calls_finds_direct_and_nested_recursion():
    assert self_calls("def f(x):\n    return f(x - 1)\n") == [("f", 2)]
    assert self_calls("def f(x):\n    def g():\n        return f(x)\n"
                      "    return g\n") == [("f", 3)]
    assert self_calls("def f(x):\n    return g(x)\n") == []
