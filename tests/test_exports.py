"""Public names: each module's `__all__` names what the module defines, and
the package re-exports only names in its modules' `__all__`.  A deleted
function that stays listed breaks only `from ... import *`, which nothing
else runs."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import nlgames

MODULES = [info.name for info in pkgutil.iter_modules(nlgames.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"nlgames.{name}")
    missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
    assert missing == []


def test_package_reexports_are_in_module_all():
    tree = ast.parse(Path(nlgames.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, ast.unparse(node)
        exported = importlib.import_module(f"nlgames.{node.module}").__all__
        stray = [alias.name for alias in node.names if alias.name not in exported]
        assert stray == [], node.module
