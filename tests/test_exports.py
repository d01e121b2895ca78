"""Public names: each module's `__all__` names what the module defines, and
the package re-exports only names in its modules' `__all__`.  A deleted
function that stays listed breaks only `from ... import *`, which nothing
else runs.  Every function, class and method in src/nlgames is named by the
code there, and every defaulted parameter is passed by some call there and
left out by another, so nothing in src is kept for tests alone; every oracle
in tests/oracles.py is named by a test, so no oracle outlives what it
checks."""

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


SRC = Path(nlgames.__file__).parent
TESTS = Path(__file__).parent

# Definitions kept although nothing names them (in src/nlgames, or in a test
# for an oracle), each with the reason it stays.
UNREFERENCED_ALLOWED: set[str] = set()


def _references(node, enclosing=frozenset()):
    """(name, is attribute) of each name read under `node`, except inside a
    definition of that same name: a method that delegates to its namesake,
    or a function that calls itself, does not keep the callee alive."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    if isinstance(node, ast.Name) and node.id not in enclosing:
        yield node.id, False
    elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
        yield node.attr, True
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def _unreferenced_definitions() -> list[str]:
    """Module-level functions and classes named nowhere in src/nlgames, and
    non-dunder methods named by no attribute access there, references inside
    a definition of the same name not counted."""
    functions = []  # (label, name)
    methods = []  # (label, name)
    names, attributes = set(), set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                functions.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                methods += [
                    (f"{module}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not (item.name[:2] == item.name[-2:] == "__")
                ]
        for name, is_attribute in _references(tree):
            names.add(name)
            if is_attribute:
                attributes.add(name)
    return [label for label, name in functions if name not in names] + [
        label for label, name in methods if name not in attributes
    ]


def test_every_definition_in_src_is_referenced_in_src():
    # A name only tests call is deleted, or moved to tests/oracles.py when
    # tests compare library results against it.
    assert sorted(set(_unreferenced_definitions()) - UNREFERENCED_ALLOWED) == []


# Defaulted parameters that no call in src/nlgames passes, each with the
# reason it stays.
UNPASSED_ALLOWED = {
    "cli.main argv": "the benchmark and the tests call main(argv) in-process; the console script passes nothing",
}


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether `call` passes the parameter `name`, at `position` when it is
    positional: by position, by keyword, or through *args or **kwargs."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args[: position + 1])


def _defaulted_parameters() -> dict[str, list[bool]]:
    """For each defaulted parameter of a module-level function, a method or
    an `__init__` in src/nlgames, as "module.function parameter", whether
    each call there passes it.  A call is matched by the name it calls; a
    method is called bound, so `self` takes no position, and an `__init__`
    is called through its class's name or as `__init__`."""
    calls: dict[str | None, list[ast.Call]] = {}
    definitions = []  # (label, names it is called by, definition, positions taken by self)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                definitions.append((f"{path.stem}.{node.name}", {node.name}, node, 0))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        names = {node.name, item.name} if item.name == "__init__" else {item.name}
                        definitions.append((f"{path.stem}.{node.name}.{item.name}", names, item, 1))
    passed = {}
    for label, names, node, skip in definitions:
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        defaulted = [(arg, i - skip) for i, arg in enumerate(positional) if i >= first]
        defaulted += [(arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        sites = [call for name in names for call in calls.get(name, ())]
        for arg, position in defaulted:
            passed[f"{label} {arg.arg}"] = [_passes(call, position, arg.arg) for call in sites]
    return passed


def test_every_defaulted_parameter_is_passed_in_src():
    # A default that only tests override is made a constant; a test that
    # needs another value monkeypatches the constant.
    unpassed = [label for label, passes in _defaulted_parameters().items() if not any(passes)]
    assert sorted(set(unpassed) - set(UNPASSED_ALLOWED)) == []
    assert set(UNPASSED_ALLOWED) <= set(unpassed)


# Defaulted parameters that every call in src/nlgames passes, each with the
# reason the default stays.
OVERRIDDEN_ALLOWED: dict[str, str] = {}


def test_every_default_serves_a_call_in_src():
    # A default that every call in src overrides serves only tests: the
    # parameter is made required, or its one value inlined.
    overridden = [label for label, passes in _defaulted_parameters().items() if passes and all(passes)]
    assert sorted(set(overridden) - set(OVERRIDDEN_ALLOWED)) == []
    assert set(OVERRIDDEN_ALLOWED) <= set(overridden)


def test_every_oracle_is_named_by_a_test():
    # A public oracle must be named in some tests/test_*.py; a private helper
    # may instead be named by another oracle.
    oracles = ast.parse((TESTS / "oracles.py").read_text())
    tests = [ast.parse(path.read_text()) for path in sorted(TESTS.glob("test_*.py"))]
    in_tests = {name for tree in tests for name, _ in _references(tree)}
    in_oracles = {name for name, _ in _references(oracles)}
    unnamed = [
        f"oracles.{node.name}"
        for node in oracles.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in in_tests
        and not (node.name.startswith("_") and node.name in in_oracles)
    ]
    assert sorted(set(unnamed) - UNREFERENCED_ALLOWED) == []
