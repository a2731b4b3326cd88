"""The package as a whole: its public names load on first access, and no
module keeps an import or a private name that it never reads."""

import ast
from importlib import import_module
from pathlib import Path

import pytest

import hekdv

SRC = Path(hekdv.__file__).parent


def test_every_export_resolves():
    for module, names in hekdv._EXPORTS.items():
        assert hekdv.__getattr__(module) is import_module(f"hekdv.{module}")
        for name in names:
            value = hekdv.__getattr__(name)
            assert value is getattr(import_module(f"hekdv.{module}"), name)


def _module_level_names(node):
    """The names an assignment, def or class at module level binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def unread_names(source):
    """The names that ``source`` imports, or binds at module level with a
    leading underscore (dunders aside), and never reads."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    bound = {(alias.asname or alias.name).split(".")[0]
             for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
             for alias in n.names}
    bound |= {name for node in tree.body for name in _module_level_names(node)
              if name.startswith("_") and not name.startswith("__")}
    return sorted(bound - read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_import_or_private_name(path):
    assert unread_names(path.read_text()) == []


def test_guard_sees_leftovers():
    source = ("from fractions import Fraction\nimport os\n_ZERO = 0\n"
              "def _helper():\n    return os.sep\n")
    assert unread_names(source) == ["Fraction", "_ZERO", "_helper"]
