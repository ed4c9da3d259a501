"""The package's export surface: each module's ``__all__``, the names
the package root re-exports, and the entries that were removed in
favour of the fit, scoring and selection paths that serve them."""

import ast
import importlib
import inspect
import os

import pytest

import maxentkit
from maxentkit import selection

MODULES = ("bench", "cli", "constraints", "errors", "ising", "selection", "simplex", "solver")

#: Names removed from the API, by module; the entry that serves each
#: behaviour now is named beside it.
REMOVED = {
    "solver": ("solve_newton",),  # fit_linear_system
    "selection": ("select_scored", "chi2_cdf"),  # select_arrays, _chi2_tail
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
