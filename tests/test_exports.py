import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fluctwalk

MODULES = sorted(m.name for m in pkgutil.iter_modules(fluctwalk.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"fluctwalk.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(fluctwalk.__file__).read_text())
    imported = [(node.module, alias.asname or alias.name)
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported and all(mod in MODULES for mod, _ in imported)
    assert [n for _, n in imported if not hasattr(fluctwalk, n)] == []
