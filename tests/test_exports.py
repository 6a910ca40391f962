"""Every module's ``__all__`` names what it defines, and the package
re-exports only names its modules export.

A stale ``__all__`` entry imports fine and fails only under ``import *``.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import jrpnet

MODULES = sorted(m.name for m in pkgutil.iter_modules(jrpnet.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"jrpnet.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"jrpnet.{name}.__all__ names undefined {missing}"


def test_package_reexports_only_exported_names():
    tree = ast.parse(Path(jrpnet.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"jrpnet.{node.module}")
        unexported = [a.name for a in node.names if a.name not in module.__all__]
        assert not unexported, f"{unexported} are not in jrpnet.{node.module}.__all__"
