"""The package root re-exports every public engine name, no module
reaches into another module's private helpers, and only ``finite_n``
loads scipy at import."""

import ast
import importlib
from pathlib import Path

import macrobell

MODULES = ("errors", "povm", "finite_n", "limits", "bell", "noise", "sampling")


def test_every_public_name_resolves_from_the_package_root():
    for module_name in MODULES:
        module = importlib.import_module(f"macrobell.{module_name}")
        for name in getattr(module, "__all__", ()):
            assert getattr(macrobell, name) is getattr(module, name), name
            assert name in macrobell.__all__, name


def test_every_lazy_export_resolves():
    for name, module_name in macrobell._EXPORTS.items():
        module = importlib.import_module(f"macrobell.{module_name}")
        assert getattr(macrobell, name) is getattr(module, name), name


def test_no_module_imports_private_names_of_another():
    offenders = []
    for path in sorted(Path(macrobell.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("macrobell")):
                offenders += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                              f"import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def test_only_finite_n_imports_scipy_at_module_level():
    # finite_n needs scipy.linalg's dstein; every other module either needs no
    # scipy or imports it inside the one function that does.
    def import_time_nodes(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield child
                yield from import_time_nodes(child)

    offenders = []
    for path in sorted(Path(macrobell.__file__).parent.glob("*.py")):
        for node in import_time_nodes(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}: {name}" for name in names
                          if name.split(".")[0] == "scipy" and path.name != "finite_n.py"]
    assert offenders == []
