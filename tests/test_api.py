"""The public API is declared once: each module's __all__, re-exported whole
by the package."""

import ast
import importlib
from pathlib import Path

import pytest

import mcchannel

MODULES = ("systems", "distortion", "design", "timedomain", "config")


def test_package_exports_exactly_the_module_lists():
    declared = [name for module in MODULES
                for name in importlib.import_module(f"mcchannel.{module}").__all__]
    assert len(declared) == len(set(declared))
    assert len(mcchannel.__all__) == len(set(mcchannel.__all__))
    assert set(mcchannel.__all__) == {"__version__", *declared}
    for name in mcchannel.__all__:
        assert hasattr(mcchannel, name), name


@pytest.mark.parametrize("module, name", [
    ("design", "CleanBands"), ("config", "TableConfig"),
    ("cli", "write_trace_csv"),
])
def test_module_only_names_stay_importable_by_module_path(module, name):
    assert hasattr(importlib.import_module(f"mcchannel.{module}"), name)
    assert name not in mcchannel.__all__


def _loads(node, inside=frozenset()):
    """The names node loads as a Name or an attribute, each counted only
    outside the function or class definition of the same name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    name = None
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        name = node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        name = node.attr
    found = {name} - inside - {None}
    for child in ast.iter_child_nodes(node):
        found |= _loads(child, inside)
    return found


def test_every_public_name_has_a_caller_in_the_package():
    # Public: a name in __all__, or a module-level function or class whose
    # name has no leading underscore.  A call, an annotation or an
    # attribute access counts; an import (an alias, not a load) or the
    # name's own definition does not.
    public, loaded = set(mcchannel.__all__) - {"__version__"}, set()
    for path in Path(mcchannel.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        public |= {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_")}
        loaded |= _loads(tree)
    assert sorted(public - loaded) == []
