"""Public names: every exported name resolves, so a deleted function cannot
linger in an ``__all__`` list or in the package namespace."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import churnpool

MODULES = [importlib.import_module(f"churnpool.{info.name}")
           for info in pkgutil.iter_modules(churnpool.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES
                                    if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_module_all_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_package_reexports_public_names():
    tree = ast.parse(inspect.getsource(churnpool))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"churnpool.{node.module}")
        public = getattr(module, "__all__", vars(module))
        for alias in node.names:
            assert alias.name in public, (
                f"churnpool re-exports {alias.name}, which "
                f"{module.__name__} does not list as public")
            assert getattr(churnpool, alias.name) is getattr(module,
                                                             alias.name)
