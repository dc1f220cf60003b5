"""Dependency audit: the package imports the standard library, itself and the
packages pyproject.toml declares, nothing else.

Lazy imports inside functions count too, so an undeclared import fails here
even when no test runs the code that makes it.
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

