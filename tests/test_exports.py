"""Public names: every ``__all__`` entry exists, the package re-exports only those,
every ``chaodecay.<module>[.<name>]`` path the README quotes resolves, and every
``python`` block of the README runs.  No module names numpy's ``linalg``: the
library's root solves are closed forms, and the eigenvalue oracle lives in the
tests."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import chaodecay

MODULES = [importlib.import_module(f"chaodecay.{m.name}")
           for m in pkgutil.iter_modules(chaodecay.__path__)]
README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


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
    paths = sorted(set(re.findall(r"\bchaodecay(?:\.\w+)+", README)))
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


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("module", [chaodecay, *MODULES], ids=lambda m: m.__name__)
def test_no_linalg(module):
    source = Path(module.__file__).read_text()
    assert "linalg" not in source, f"{module.__name__} names linalg"
