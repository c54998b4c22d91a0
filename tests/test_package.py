"""The package root re-exports every public engine name, and no module
reaches into another module's private helpers."""

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
