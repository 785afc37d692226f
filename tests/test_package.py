"""Checks on the package's sources: modules use each other only through
public names, and every name a module exports exists."""

import ast
import importlib
from pathlib import Path

import pytest

import mlwos

PACKAGE = Path(mlwos.__file__).resolve().parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node):
    """Package module a ``from`` import names, or None."""
    name = node.module or ""
    if node.level == 1:
        return name or "mlwos"
    if name == "mlwos" or name.startswith("mlwos."):
        return name.rpartition(".")[2]
    return None


def private_cross_module_names(source, own):
    """Underscore names of other package modules that module ``own`` reads,
    as ``module._name``: attributes of a name bound to a package module
    (``estimator._x``) and names imported from one (``from .studies import
    _x``). Attributes of other objects, such as ``domain._dist``, and
    dunder names are not counted."""
    tree = ast.parse(source)
    modules = {}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _package_module(node)
            for alias in node.names:
                if module == "mlwos" and alias.name in MODULES:
                    modules[alias.asname or alias.name] = alias.name
                elif module not in (None, "mlwos", own) and _private(alias.name):
                    found.add(f"{module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and modules.get(node.value.id, own) != own
            and _private(node.attr)
        ):
            found.add(f"{modules[node.value.id]}.{node.attr}")
    return found


def test_scanner_flags_both_forms_only():
    source = (
        "from . import estimator, walk\n"
        "from .studies import _csv, render_csv\n"
        "from .geometry import Domain\n"
        "estimator._sample_plain(walk.run_many, walk.__name__)\n"
        "domain._dist(pts)\n"
        "estimator._sample_plain\n"
    )
    assert private_cross_module_names(source, "cli") == {
        "studies._csv",
        "estimator._sample_plain",
    }
    assert private_cross_module_names("from .walk import _WIDTH\n", "walk") == set()


@pytest.mark.parametrize("name", sorted(MODULES - {"__init__", "__main__"}))
def test_all_entries_resolve(name):
    # A stale ``__all__`` entry otherwise fails only on ``import *``.
    module = importlib.import_module(f"mlwos.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing, f"mlwos.{name}.__all__ names undefined {missing}"


def test_no_private_cross_module_names():
    found = sorted(
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in private_cross_module_names(path.read_text(), path.stem)
    )
    assert not found, "private names read across modules:\n" + "\n".join(found)
