"""The public API is each module's ``__all__``, which the package
star-imports: a name in two lists would shadow one of them silently."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil

import treewco as tw


def public_modules():
    """The package's modules that declare an ``__all__``."""
    modules = [importlib.import_module(f"treewco.{m.name}") for m in pkgutil.iter_modules(tw.__path__)]
    return [m for m in modules if hasattr(m, "__all__")]


def top_level_names(module) -> set:
    """The names a module's own source binds at top level."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_each_public_name_is_declared_once_where_it_is_defined():
    owner = {}
    for module in public_modules():
        defined = top_level_names(module)
        for name in module.__all__:
            assert name not in owner, f"{name} is in {owner.get(name)} and {module.__name__}"
            assert name in defined, f"{module.__name__} lists {name} but does not define it"
            owner[name] = module.__name__
    assert len(owner) > 50


def test_package_names_are_the_union_of_the_lists():
    declared = {name for module in public_modules() for name in module.__all__}
    exported = {
        name for name, value in vars(tw).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == declared
    assert tw.__version__


def package_imports(module) -> set:
    """The package modules that a module's ``from .x import`` lines name."""
    return {
        node.module
        for node in ast.walk(ast.parse(inspect.getsource(module)))
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


def test_each_module_imports_only_what_its_layer_needs():
    # closed forms read trees and functions; certificates read closed forms;
    # the oracles check closed forms, never the certificates or the reports
    assert package_imports(tw.operators) == {"functions", "trees"}
    assert package_imports(tw.classify) == {"certificate", "operators"}
    assert not package_imports(tw.oracle) & {"classify", "io"}


def test_only_classify_builds_certificates():
    builders = set()
    for m in pkgutil.iter_modules(tw.__path__):
        module = importlib.import_module(f"treewco.{m.name}")
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Certificate":
                builders.add(m.name)
    assert builders == {"classify"}
