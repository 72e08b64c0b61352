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


# exported names that no command, certificate, experiment or script calls,
# each kept on purpose
UNCALLED_EXPORTS = {
    "local_time_verbatim": "scalar reference for the batched local_time_curve_np",
    "future_min_local_time": "scalar reference for the batched future_min_local_time_np",
    "meander_endpoint_distribution": "exact lattice law the meander tests compare against",
    "survival_probability": "library entry point the benchmark calls",
}


def _all_nodes(tree):
    """The nodes of every module-level ``__all__ = [...]`` value."""
    return {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
            for node in ast.walk(stmt.value)}


def test_every_exported_name_has_a_caller():
    # a reference is a Name, an Attribute or a string constant equal to the
    # name (the certificate names in cli.VERIFY), anywhere in the package
    # outside __init__.py and the __all__ lists, or in scripts/
    package = Path(fluctwalk.__file__).parent
    files = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((Path(__file__).parent.parent / "scripts").glob("*.py"))
    referenced = set()
    for path in files:
        tree = ast.parse(path.read_text())
        skip = _all_nodes(tree)
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    exported = {name for module in MODULES
                for name in getattr(importlib.import_module(f"fluctwalk.{module}"),
                                    "__all__", [])}
    assert UNCALLED_EXPORTS.keys() <= exported
    assert sorted(exported - referenced - UNCALLED_EXPORTS.keys()) == []
