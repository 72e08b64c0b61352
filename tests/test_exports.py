import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import fluctwalk
from fluctwalk import certify
from fluctwalk.cli import VERIFY
from fluctwalk.experiments import DECLARED

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
    "survival_probability": "library entry point the benchmark calls",
}


def test_no_test_reference_is_a_library_name():
    # the single-path references live beside the tests; a name defined in
    # tests/reference.py that is also a public name of the package has
    # drifted back into the library
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    assert {"local_time_strict", "oracle_walk", "lattice_laws", "ladder_epochs",
            "tanaka_transform", "exact_functional_distribution"} <= defined
    public = {name for module in MODULES
              for name in _public_names(importlib.import_module(f"fluctwalk.{module}"))}
    public |= {name for name in vars(fluctwalk) if not name.startswith("_")}
    assert sorted(defined & public) == []


def _all_nodes(tree):
    """The nodes of every module-level ``__all__ = [...]`` value."""
    return {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
            for node in ast.walk(stmt.value)}


def _public_names(module):
    """The ``__all__`` names of a module and its public module-level functions."""
    functions = {name for name, obj in vars(module).items()
                 if inspect.isfunction(obj) and obj.__module__ == module.__name__
                 and not name.startswith("_")}
    return functions | set(getattr(module, "__all__", []))


def test_every_exported_name_has_a_caller():
    # every exported name and every public module-level function; a
    # reference is a Name, an Attribute or a string constant equal to the
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
                for name in _public_names(importlib.import_module(f"fluctwalk.{module}"))}
    assert UNCALLED_EXPORTS.keys() <= exported
    assert sorted(exported - referenced - UNCALLED_EXPORTS.keys()) == []
    # an entry whose name has gained a caller is stale
    assert sorted(UNCALLED_EXPORTS.keys() & referenced) == []


# optional parameters that no caller sets, each kept on purpose
UNSET_PARAMETERS = {}


def _calls(files):
    """Every call by name: (positional count, keyword names) per call site.

    The name is the called Name or the attribute of a called Attribute.
    """
    calls = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                calls.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords}))
    return calls


def _exported_functions():
    """(name, function, leading parameters the call does not pass) for every
    ``__all__`` function and every public method of an exported class."""
    for module in MODULES:
        mod = importlib.import_module(f"fluctwalk.{module}")
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                yield name, obj, 0
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, staticmethod):
                        yield attr, member.__func__, 0
                    elif isinstance(member, classmethod):
                        yield attr, member.__func__, 1
                    elif inspect.isfunction(member):
                        yield attr, member, 1


def test_every_optional_parameter_has_a_setter():
    # a parameter with a default is set when some call of its function's name
    # in the package (outside __init__.py), scripts/ or bench/ passes it by
    # keyword or by position; every parameter of a cli.VERIFY certificate is
    # also set, by the config key of its name or, for the seed, by the
    # command.  Blind spot: a parameter that callers pass only at its default
    # value counts as set, and so does one passed to a same-named other
    # function.
    root = Path(__file__).parent.parent
    package = Path(fluctwalk.__file__).parent
    files = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((root / "scripts").glob("*.py")) + sorted((root / "bench").glob("*.py"))
    calls = _calls(files)
    from_config = {(certificate, param) for certificate in VERIFY.values()
                   for param in inspect.signature(getattr(certify, certificate)).parameters}
    unset = []
    for name, fn, skip in _exported_functions():
        params = list(inspect.signature(fn).parameters.values())[skip:]
        for i, p in enumerate(params):
            if p.default is inspect.Parameter.empty or (name, p.name) in from_config:
                continue
            if not any(i < n_pos or p.name in keywords
                       for n_pos, keywords in calls.get(name, [])):
                unset.append((name, p.name))
    extra = sorted(set(unset) - UNSET_PARAMETERS.keys())
    assert not extra, "no caller sets " + ", ".join(f"{f}({p}=)" for f, p in extra)
    assert UNSET_PARAMETERS.keys() <= set(unset)


def test_every_declared_param_has_a_setter():
    # a DECLARED param is set when a string constant in scripts/ or bench/
    # names it; a value that nothing sets is a module constant instead.  Blind
    # spot: a param that callers set only at its declared value counts as set,
    # and so does one whose name a string constant uses for something else.
    root = Path(__file__).parent.parent
    files = sorted((root / "scripts").glob("*.py")) + sorted((root / "bench").glob("*.py"))
    named = {node.value for path in files for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unset = [f"{name}.{key}" for name, declared in DECLARED.items()
             for key in declared.params if key not in named]
    assert not unset, "no script or benchmark sets " + ", ".join(unset)
