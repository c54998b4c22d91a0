"""The package root re-exports every public engine name, the README's
Layout table and its backticked calls name only such names, no module
reaches into another module's private helpers or checks integers, finite
reals or increasing grids outside ``errors``, no module but ``limits`` states
the alpha = 1/2 level band, no module imports scipy, not even inside a
function, and no command loads it."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import macrobell

from conftest import src_env

MODULES = ("errors", "povm", "finite_n", "limits", "bell", "noise", "sampling")

README = Path(__file__).parent.parent / "README.md"


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


#: Backticked names in the Layout table that are not package exports: the
#: particle count and the command.
LAYOUT_NON_EXPORTS = {"N", "macrobell"}


def test_every_name_in_the_readme_layout_table_resolves():
    readme = README.read_text()
    table = readme.split("## Layout", 1)[1].split("\n## ", 1)[0]
    names = {span for span in re.findall(r"`([^`]+)`", table)
             if re.fullmatch(r"[A-Za-z_]\w*", span)} - LAYOUT_NON_EXPORTS
    assert names, "no names found in the Layout table"
    assert [name for name in sorted(names) if not hasattr(macrobell, name)] == []


#: Math in backticked README formulas, not library calls.
README_MATH = {"O", "sqrt", "max", "min", "exp", "log", "erf"}


def test_every_call_and_engine_name_in_the_readme_resolves():
    # A backticked call name(...) is a package export, and a backticked
    # <engine>.name an attribute of that engine, so no deleted name stays in
    # the docs.  Fenced code blocks are skipped.
    readme = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    spans = re.findall(r"`([^`]+)`", readme)
    calls = {name for span in spans
             for name in re.findall(r"(?<![\w.])([A-Za-z_]\w*)\(", span)} - README_MATH
    dotted = {pair for span in spans
              for pair in re.findall(rf"\b({'|'.join(MODULES)})\.(\w+)", span)}
    assert calls and dotted, "no calls or engine names found in the README"
    missing = [name for name in sorted(calls) if not hasattr(macrobell, name)]
    missing += [f"{module}.{name}" for module, name in sorted(dotted)
                if not hasattr(importlib.import_module(f"macrobell.{module}"), name)]
    assert missing == []


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


def test_only_errors_checks_integers_and_finite_reals():
    # check_integer, check_real and check_grid in errors.py are the one place
    # for these rules; a larger step, such as np.diff(...) > 1, is numerics.
    banned = {("math", "isfinite"), ("np", "integer"), ("numpy", "integer")}

    def offence(node):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "numbers" for alias in node.names):
                return "import numbers"
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "numbers" or any((node.module, alias.name) in banned
                                               for alias in node.names):
                return f"from {node.module} import"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (node.value.id, node.attr) in banned:
                return f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.Compare):
            if re.fullmatch(r"(np|numpy)\.diff\(.*\) > 0", ast.unparse(node)):
                return ast.unparse(node)
        return None

    offenders = []
    for path in sorted(Path(macrobell.__file__).parent.glob("*.py")):
        if path.name != "errors.py":
            offenders += [f"{path.name}:{node.lineno}: {offence(node)}"
                          for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                          if offence(node)]
    assert offenders == []


def test_no_module_imports_scipy():
    offenders = []
    for path in sorted(Path(macrobell.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}: {name}" for name in names
                          if name.split(".")[0] == "scipy"]
    assert offenders == []


def test_finite_n_calls_and_commands_load_no_scipy(tmp_path):
    script = f"""
import runpy, sys
from macrobell.finite_n import DickeSuperposition, pmf_finite
from macrobell.povm import derive_params, projective_from_bloch
from macrobell.sampling import sample_outcomes

povm = projective_from_bloch(1.2, 0.3)
state = DickeSuperposition.from_coeffs(200, [2.0, 5 ** 0.5, 1.0], base_level=100)
pmf_finite(state, povm, derive_params(povm), 0.5)
sample_outcomes(state, povm, derive_params(povm), 0.5, 50, seed=1)
out = {str(tmp_path)!r}
for argv in (["dist", "--N", "400", "--povm", "sx", "--coeffs", "paper"],
             ["sample", "--N", "100", "--povm", "sx", "--state", "w", "--n-samples", "50",
              "--seed", "3"],
             ["converge", "--povm", "sx", "--state", "w", "--n-list", "10,20",
              "--n-samples", "50", "--seed", "3"],
             ["selftest"]):
    sys.argv = ["macrobell", *argv, *(["--out", f"{{out}}/{{argv[0]}}.csv"]
                                      if argv[0] != "selftest" else [])]
    try:
        runpy.run_module("macrobell.cli", run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, (argv, exc.code)
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            check=True, env=src_env())
    assert result.stdout.splitlines()[-1].split() == []


def test_only_limits_states_the_level_band():
    # limits.real_half_width, (2 sqrt(k_max + 1/2) + 12) sqrt(1 + s^2), is the one
    # statement of where the alpha = 1/2 levels live; every grid, lattice and
    # half-line reads it rather than writing its own.
    offenders = []
    for path in sorted(Path(macrobell.__file__).parent.glob("*.py")):
        if path.name != "limits.py":
            offenders += [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                          for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                          if isinstance(node, ast.Call)
                          and ast.unparse(node.func).split(".")[-1] == "sqrt"
                          and [ast.unparse(arg) for arg in node.args] == ["k_max + 0.5"]]
    assert offenders == []
