"""Every function the router's records define is one the program uses.

The cycles (``Router.step`` and ``kernel.c``) state the router's rules;
the records they read — ``repro/core`` and the network's ``vc``,
``buffers``, ``credits``, ``ports``, ``link`` and ``flit`` modules — must
not grow a second statement of a rule that only tests call. So each
function or method defined there needs a reference by name or attribute
in the code under ``src/`` (its own definition, imports, ``__all__``,
strings and comments do not count). Dunder methods are called by Python
itself and are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
RECORDS = [*sorted((SRC / "repro" / "core").glob("*.py")),
           *(SRC / "repro" / "network" / f"{name}.py"
             for name in ("vc", "buffers", "credits", "ports", "link",
                          "flit"))]


def defined(path):
    """``(name, line)`` of every function and method ``path`` defines."""
    tree = ast.parse(path.read_text())
    return [(node.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__")
                     and node.name.endswith("__"))]


def referenced():
    """Every name and attribute the code under ``src/`` reads or
    writes."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_record_function_has_a_caller_in_src():
    used = referenced()
    unused = [f"{path.relative_to(SRC)}:{line} {name}"
              for path in RECORDS if path.exists()
              for name, line in defined(path) if name not in used]
    assert not unused, "defined but never used by the program:\n" + \
        "\n".join(unused)
