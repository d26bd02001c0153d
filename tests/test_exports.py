"""Every exported name resolves, so a removed definition cannot leave a
dangling entry in ``__all__``; the package exports exactly its submodules'
names; and no module imports a name it neither uses nor exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import wsumdist

MODULES = ["wsumdist"] + [
    f"wsumdist.{info.name}" for info in pkgutil.iter_modules(wsumdist.__path__)
]

SOURCES = sorted(Path(wsumdist.__file__).parent.glob("*.py"))


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
    """The package exports exactly the names its submodules export, each
    from the submodule that lists it."""
    owners = {}
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", []):
            owners.setdefault(export, []).append(module)
    assert sorted(n for n, mods in owners.items() if len(mods) > 1) == []
    assert sorted(wsumdist.__all__) == sorted(owners)
    for export, (module,) in owners.items():
        assert getattr(wsumdist, export) is getattr(module, export)


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but neither reads nor lists in ``__all__``.

    Star imports and ``__future__`` imports bind nothing checkable and are
    skipped; ``import a.b`` binds ``a``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os\n", ["os (line 1)"]),
        ("import os.path\nos.sep\n", []),
        ("from x import a, b as c\nc()\n", ["a (line 1)"]),
        ("from x import a\n__all__ = ['a']\n", []),
        ("from x import *\n", []),
        ("from __future__ import annotations\n", []),
        ("def f():\n    from x import a\n", ["a (line 2)"]),
    ],
)
def test_unused_import_finder(source, unused):
    assert _unused_imports(source) == unused
