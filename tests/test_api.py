"""The package's export surface: each module's ``__all__``, the names
the package root re-exports, and the entries that were removed in
favour of the fit, scoring and selection paths that serve them."""

import ast
import importlib
import inspect
import os
import subprocess
import sys

import pytest

import maxentkit
from maxentkit import selection

MODULES = ("bench", "cli", "constraints", "errors", "ising", "selection", "simplex", "solver")

#: Names removed from the API, by module; the entry that serves each
#: behaviour now is named beside it.
REMOVED = {
    "solver": (
        "solve_newton",  # fit_linear_system
        "fit_linear_systems",  # _fit_table, select, fit_linear_system
    ),
    "selection": (
        "select_scored", "chi2_cdf",  # select_arrays, _chi2_tail
        "score_candidates",  # select(...).scores and .failed_ids
    ),
    "constraints": (
        "NestingMap", "nesting_map",  # is_nested
        "SupportReduction", "reduce_binary_support",  # _support_reductions
        "induced_moments",  # rows @ p
    ),
}


def root_imports():
    """(module, name) for every name ``maxentkit/__init__.py`` imports
    from a module of the package."""
    path = os.path.join(os.path.dirname(maxentkit.__file__), "__init__.py")
    with open(path) as handle:
        tree = ast.parse(handle.read())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"maxentkit.{module}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name}"


def test_root_imports_only_exported_names():
    imported = root_imports()
    assert {module for module, _ in imported} <= set(MODULES)
    for module, name in imported:
        mod = importlib.import_module(f"maxentkit.{module}")
        assert name in mod.__all__, f"{module}.{name}"
        assert getattr(maxentkit, name) is getattr(mod, name)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in REMOVED.items() for n in names])
def test_removed_names_are_gone(module, name):
    mod = importlib.import_module(f"maxentkit.{module}")
    assert not hasattr(mod, name)
    assert name not in mod.__all__
    assert not hasattr(maxentkit, name)


def test_select_takes_no_implication_oracle():
    assert "implies" not in inspect.signature(selection.select).parameters


def test_every_private_helper_is_referenced():
    """Each module-level private function or class of the package is
    reached by package code: a name, an attribute or an import of it,
    not a mention in a docstring alone."""
    package = os.path.dirname(maxentkit.__file__)
    defined, referenced = [], set()
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(package, filename)) as handle:
            tree = ast.parse(handle.read())
        defined += [
            f"{filename}:{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    assert len(defined) > 50
    assert [name for name in defined if name.split(":")[1] not in referenced] == []


def test_import_loads_no_scipy():
    """``import maxentkit`` loads numpy alone: scipy is imported on first
    use by ``constraints.kernel_basis`` only.  A module-level scipy import
    costs every process about 0.3 s and 25 MB."""
    src = os.path.dirname(os.path.dirname(maxentkit.__file__))
    code = "import sys, maxentkit; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
