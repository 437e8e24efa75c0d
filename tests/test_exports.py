"""Public names: every ``__all__`` entry exists, and the package re-exports only those."""

import importlib
import pkgutil

import pytest

import chaodecay

MODULES = [importlib.import_module(f"chaodecay.{m.name}")
           for m in pkgutil.iter_modules(chaodecay.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def test_package_reexports_are_exported():
    exported = {name for module in MODULES for name in module.__all__}
    public = {name for name, value in vars(chaodecay).items()
              if not name.startswith("_") and value not in MODULES}
    assert public <= exported, sorted(public - exported)
