"""Every name a module under src/ imports is used in that module, and the
command line loads no module it does not need.

A stand-in for a linter's unused-import rule, on the standard library's
ast alone.  Package __init__ files are skipped, since their imports are
re-exports, and so is `from __future__`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of every imported name that no Name node reads; an
    attribute chain such as os.path.join starts with the Name os."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from fractions import Fraction as F, gcd\n"
              "x: F = os.path.sep\n")
    assert unused_imports(source) == [(3, "gcd")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_cli_loads_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize: about 11 ms of
    # every launch; plain records are namedtuples or dicts instead
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, affineclasses.cli; print(sorted("
         "m for m in ('dataclasses', 'inspect') if m in sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
