"""Every exported name resolves, so a removed definition cannot leave a
dangling entry in ``__all__``."""

import importlib
import pkgutil

import pytest

import wsumdist

MODULES = ["wsumdist"] + [
    f"wsumdist.{info.name}" for info in pkgutil.iter_modules(wsumdist.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", ["wsumdist", "wsumdist.markov"])
def test_mb_pmfs_exported(name):
    assert "mb_pmfs" in importlib.import_module(name).__all__


def test_package_exports_come_from_submodules():
    """Every name the package exports is exported by the submodule that
    defines it, so ``__all__`` lists stay in step."""
    submodule_names = set()
    for name in MODULES[1:]:
        submodule_names.update(getattr(importlib.import_module(name), "__all__", []))
    assert sorted(set(wsumdist.__all__) - submodule_names) == []
