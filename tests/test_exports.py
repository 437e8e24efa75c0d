"""Public names: every ``__all__`` entry exists, the package re-exports only those,
and every ``chaodecay.<module>[.<name>]`` path the README quotes resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

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


def test_readme_dotted_paths_resolve():
    # MODULES imported every submodule, so each is an attribute of the package
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paths = sorted(set(re.findall(r"\bchaodecay(?:\.\w+)+", readme)))
    assert paths

    def resolves(dotted):
        obj = chaodecay
        for part in dotted.split(".")[1:]:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True

    missing = [p for p in paths if not resolves(p)]
    assert not missing, f"README names paths that do not exist: {missing}"
