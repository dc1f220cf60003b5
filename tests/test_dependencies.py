"""Dependency audit: the package imports the standard library, itself and the
packages pyproject.toml declares, nothing else, and reads every name it imports.

Lazy imports inside functions count too, so an undeclared or unused import
fails here even when no test runs the code that makes it.
"""
import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dsm_geom"


def declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # the standard library from 3.11
    with open(ROOT / "pyproject.toml", "rb") as handle:
        requirements = tomllib.load(handle)["project"]["dependencies"]
    # "numpy>=1.24" -> "numpy"; distribution names compare as module names
    names = (re.match(r"[A-Za-z0-9_.-]+", req).group() for req in requirements)
    return {name.lower().replace("-", "_") for name in names}


def imported_packages(path):
    """(line, top-level package) of every absolute import in one module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_import_is_stdlib_the_package_or_declared():
    allowed = set(sys.stdlib_module_names) | {"dsm_geom"} | declared_dependencies()
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    undeclared = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sources
        for line, name in imported_packages(path)
        if name not in allowed
    ]
    assert not undeclared, undeclared



def unused_imports(source):
    """(line, name) of every name an import binds (``__future__`` excepted)
    that the module neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    bound, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.partition(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in read]


def test_the_unused_import_scan_sees_lazy_and_aliased_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import pi as half_turn, tau\n"
        "__all__ = ['tau']\n"
        "def f():\n"
        "    import json\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == [(3, "half_turn"), (6, "json")]


def test_every_imported_name_is_read_or_exported():
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert not unused, unused
