"""The package root re-exports every public engine name."""

import importlib

import macrobell

MODULES = ("errors", "povm", "finite_n", "limits", "bell", "noise", "sampling")


def test_every_public_name_resolves_from_the_package_root():
    for module_name in MODULES:
        module = importlib.import_module(f"macrobell.{module_name}")
        for name in getattr(module, "__all__", ()):
            assert getattr(macrobell, name) is getattr(module, name), name
            assert name in macrobell.__all__, name
