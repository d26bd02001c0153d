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
