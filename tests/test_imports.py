"""Every name a module of the package imports is used in that module: an
import that nothing reads still costs its load time and misleads the reader.
Checked on the source with ``ast``, per scope: a name imported inside a
function must be used inside that function."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kerrsqueeze"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _own_nodes(scope):
    """The nodes of a scope that no function, class or lambda inside it holds."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source):
    """(line, name) of each imported name that its scope never reads."""
    tree = ast.parse(source)
    unused = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, SCOPES))]:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for node in _own_nodes(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append((node.lineno, name))
    return sorted(unused)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_each_scope():
    source = ("import os, sys as system\nfrom typing import List\nimport a.b\n"
              "def f():\n    import json\n    return a.b\n"
              "def g():\n    from math import pi\n    return lambda: pi + len(List)\n")
    assert unused_imports(source) == [(1, "os"), (1, "system"), (5, "json")]
    # a name read only in another function does not count for a local import
    assert unused_imports("import m\ndef f():\n    import n\ndef g():\n    return n, m\n") == [
        (3, "n")]
