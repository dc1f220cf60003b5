"""Dependency audit: the package imports the standard library, itself and the
packages pyproject.toml declares, nothing else, and reads every name it imports.

Lazy imports inside functions count too, so an undeclared or unused import
fails here even when no test runs the code that makes it.
"""
import ast
import dataclasses
import pathlib
import re
import sys

import pytest

from dsm_geom import cli, structure
from dsm_geom.core import ModelDefinition, Tolerances

from test_witnesses import WITNESSES, check_tables

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


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_statements(source):
    """(line, statement, names it defines, names it reads) of each
    module-level statement.  A read is a loaded name or attribute; an
    import or an ``__all__`` entry is not one."""
    for node in ast.parse(source).body:
        if isinstance(node, _DEFINITIONS):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [
                sub.id
                for target in targets
                for sub in ast.walk(target)
                if isinstance(sub, ast.Name)
            ]
        else:
            defined = []
        reads = {
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
        }
        yield node.lineno, node, defined, reads


def unread_names(sources, wanted):
    """(module, line, name) of every name a module-level statement of
    ``sources`` (module -> source) defines, ``wanted(statement, module,
    name)`` selects, and no statement of any module reads, its own
    definition excepted."""
    statements = [
        (module, line, node, defined, reads)
        for module, source in sources.items()
        for line, node, defined, reads in _module_statements(source)
    ]
    return [
        (module, line, name)
        for module, line, node, defined, _ in statements
        for name in defined
        if wanted(node, module, name)
        and not any(
            name in reads
            for other, other_line, _, _, reads in statements
            if (other, other_line) != (module, line)
        )
    ]


def dead_private_names(sources):
    """(module, line, name) of every module-level private def, class or
    assignment in ``sources`` that no statement of any module reads, its own
    definition excepted.  A private name starts with one underscore."""
    return unread_names(
        sources, lambda node, module, name: name.startswith("_") and not name.startswith("__")
    )


def test_the_dead_helper_scan_sees_reads_from_other_modules_only():
    sources = {
        "a": (
            "_LIMIT, _UNUSED = 1, 2\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Dead:\n"
            "    pass\n"
        ),
        "b": "from a import _helper\nimport a\nvalue = a._helper() + a.__name__\n",
    }
    assert dead_private_names(sources) == [
        ("a", 1, "_UNUSED"),
        ("a", 4, "_recursive"),
        ("a", 6, "_Dead"),
    ]


def test_every_private_helper_is_read_in_the_package():
    sources = {
        str(path.relative_to(ROOT)): path.read_text() for path in sorted(PACKAGE.rglob("*.py"))
    }
    dead = [f"{module}:{line}: {name}" for module, line, name in dead_private_names(sources)]
    assert not dead, dead


def unread_error_fields(errors_source, others):
    """(class, line, attribute) of every ``self.<attribute>`` an ``__init__``
    in ``errors_source`` stores that no source in ``others`` reads."""
    read = {
        sub.attr
        for source in others
        for sub in ast.walk(ast.parse(source))
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    return [
        (cls.name, sub.lineno, sub.attr)
        for cls in ast.parse(errors_source).body
        if isinstance(cls, ast.ClassDef)
        for init in cls.body
        if isinstance(init, ast.FunctionDef) and init.name == "__init__"
        for sub in ast.walk(init)
        if isinstance(sub, ast.Attribute)
        and isinstance(sub.ctx, ast.Store)
        and isinstance(sub.value, ast.Name)
        and sub.value.id == "self"
        and sub.attr not in read
    ]


def test_the_error_field_scan_sees_reads_from_other_modules_only():
    errors = (
        "class Failed(Exception):\n"
        "    def __init__(self, message, point, reason):\n"
        "        super().__init__(message)\n"
        "        self.point = point\n"
        "        self.reason = reason\n"
        "    def __str__(self):\n"
        "        return self.reason\n"
    )
    reader = "def evidence(err):\n    return err.point\n"
    assert unread_error_fields(errors, [reader]) == [("Failed", 5, "reason")]


def test_every_stored_error_field_is_read_in_the_package():
    # an exception carries evidence only for a caller that reads it
    others = [
        path.read_text() for path in sorted(PACKAGE.rglob("*.py")) if path.name != "errors.py"
    ]
    unread = unread_error_fields((PACKAGE / "errors.py").read_text(), others)
    assert not unread, unread



def named(source):
    """(line, name) of every name a module imports, reads or reads as an attribute."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr


def test_models_leave_the_probe_design_to_core():
    # a model hands its probe to core.antithetic_pairs, which alone builds the
    # probe list and knows the probe step
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((PACKAGE / "models").glob("*.py"))
        for line, name in named(path.read_text())
        if name == "PROBE_DELTA"
    ]
    assert not found, found


def restated_defaults(source, defaults):
    """(line, keyword) of every keyword of a ``ModelDefinition(...)`` call, bare
    or qualified, whose value is a constant equal to ``defaults[keyword]``, of
    the same type."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name != "ModelDefinition":
                continue
            for keyword in node.keywords:
                if isinstance(keyword.value, ast.Constant) and keyword.arg in defaults:
                    value, default = keyword.value.value, defaults[keyword.arg]
                    if type(value) is type(default) and value == default:
                        yield keyword.value.lineno, keyword.arg


def test_the_default_scan_sees_bare_and_qualified_calls_and_constants_only():
    source = (
        "def f(oracle, fit):\n"
        "    a = ModelDefinition(name='a', oracle=None, divergence_tag='kl', count=0)\n"
        "    b = core.ModelDefinition(\n"
        "        name='b', oracle=oracle, closed_form_fit_fn=fit,\n"
        "        divergence_tag='other', count=False)\n"
        "    return Other(oracle=None)\n"
    )
    defaults = {"oracle": None, "closed_form_fit_fn": None, "divergence_tag": "other", "count": 0}
    assert list(restated_defaults(source, defaults)) == [
        (2, "oracle"), (2, "count"), (5, "divergence_tag"),
    ]


def test_no_model_builder_restates_a_model_definition_default():
    # a keyword that passes the contract's own default says nothing; the
    # builders left out oracle, probes or a closed-form fit by spelling None
    defaults = {
        spec.name: spec.default
        for spec in dataclasses.fields(ModelDefinition)
        if spec.default is not dataclasses.MISSING
    }
    found = [
        f"{path.relative_to(ROOT)}:{line}: {keyword}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, keyword in restated_defaults(path.read_text(), defaults)
    ]
    assert not found, found


def field_fallbacks(source):
    """(line, name) of every ``x or connection_field(...)`` and ``x or metric_field(...)``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            for value in node.values[1:]:
                func = value.func if isinstance(value, ast.Call) else None
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in ("connection_field", "metric_field"):
                    yield node.lineno, name


def test_the_fallback_scan_sees_bare_and_qualified_builders():
    source = (
        "def f(model, conn=None, metric=None):\n"
        "    conn = conn or connection_field(model)\n"
        "    metric = (metric\n"
        "              or geometry.metric_field(model))\n"
        "    return conn or metric or connection_field\n"
    )
    assert list(field_fallbacks(source)) == [(2, "connection_field"), (3, "metric_field")]


def test_paths_take_a_field_and_no_function_builds_a_hidden_one():
    # a field built inside a function carries the default tolerances, not the
    # caller's: transport integrates the field it is given, and a function
    # that needs a field takes it as an argument
    found = [
        f"src/dsm_geom/transport.py:{line}: {name}"
        for line, name in named((PACKAGE / "transport.py").read_text())
        if name in ("ModelDefinition", "models", "connection_field")
    ]
    found += [
        f"{path.relative_to(ROOT)}:{line}: or {name}("
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, name in field_fallbacks(path.read_text())
    ]
    assert not found, found


def second_sources(source):
    """(line, function, parameter) of every ``model`` or ``tol`` parameter of a
    public module-level function that also takes a field (``metric`` or
    ``connection``)."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            spec = node.args
            names = [arg.arg for arg in spec.posonlyargs + spec.args + spec.kwonlyargs]
            if {"metric", "connection"} & set(names):
                for name in names:
                    if name in ("model", "tol"):
                        yield node.lineno, node.name, name


def test_the_signature_scan_sees_every_parameter_kind():
    source = (
        "def f(model, theta, connection):\n    pass\n"
        "def g(metric, connection, *, tol=None):\n    pass\n"
        "def _h(model, connection):\n    pass\n"
        "def k(connection, theta):\n    pass\n"
        "def m(model, tol):\n    pass\n"
        "class C:\n    def n(self, model, metric):\n        pass\n"
    )
    assert list(second_sources(source)) == [(1, "f", "model"), (3, "g", "tol")]


def test_a_function_that_takes_a_field_takes_no_model_and_no_tolerances():
    # a field carries its domain and the Tolerances it was built with; a model
    # or tol beside it can disagree with it (a path solved to the default
    # tol.flat, an oracle's curvature refused outside the model's chart)
    found = [
        f"src/dsm_geom/{module}.py:{line}: {function}(..., {name}, ...)"
        for module in ("geometry", "transport")
        for line, function, name in second_sources((PACKAGE / f"{module}.py").read_text())
    ]
    assert not found, found


def _tolerance_read(node):
    """The ``<field>`` of a ``tol.<field>`` or ``<x>.tol.<field>`` node, else None."""
    if isinstance(node, ast.Attribute):
        owner = node.value
        if getattr(owner, "id", None) == "tol" or getattr(owner, "attr", None) == "tol":
            return node.attr
    return None


def raw_tolerance_comparisons(source, fields):
    """(line, field) of every comparison with a ``tol.<field>`` or
    ``<x>.tol.<field>`` operand, for ``<field>`` in ``fields``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for operand in [node.left, *node.comparators]:
                if _tolerance_read(operand) in fields:
                    yield node.lineno, operand.attr


def test_the_comparison_scan_sees_bare_and_qualified_tolerances():
    source = (
        "def f(tol, config, x, limit):\n"
        "    if x > tol.cond4:\n"
        "        return config.tol.flat >= x\n"
        "    return passes(x, tol.path) or x < tol.bogus or x <= limit\n"
    )
    found = raw_tolerance_comparisons(source, {"cond4", "flat", "path"})
    assert list(found) == [(2, "cond4"), (3, "flat")]


def test_every_tolerance_check_goes_through_the_verdict_rule():
    # core.passes is the one rule: a value within its tolerance passes, NaN fails
    fields = {spec.name for spec in dataclasses.fields(Tolerances)}
    found = [
        f"{path.relative_to(ROOT)}:{line}: tol.{name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, name in raw_tolerance_comparisons(path.read_text(), fields)
    ]
    assert not found, found


def unchecked_tolerances(fields, check_tables, sources):
    """The ``fields`` that are the tolerance (last column) of no check in
    ``check_tables`` and are read as ``tol.<field>`` in none of ``sources``."""
    used = {check[-1] for table in check_tables for check in table}
    used.update(_tolerance_read(node) for source in sources for node in ast.walk(ast.parse(source)))
    return sorted(set(fields) - used)


def test_the_unchecked_tolerance_scan_sees_tables_and_reads():
    source = (
        "def f(tol, config, limits, x):\n"
        "    solve(x, tol.flat)\n"
        "    return passes(x, config.tol.path) and x < limits.hessian\n"
    )
    tables = [(("condition4", "fibre_deviation", "cond4"),), ()]
    fields = ["cond4", "hessian", "flat", "codazzi", "path"]
    assert unchecked_tolerances(fields, tables, [source]) == ["codazzi", "hessian"]


def test_every_tolerance_is_the_tolerance_of_a_check():
    # a field no check compares with is a --tol key that changes nothing
    tables = [checks for *_, checks in cli._OPS.values()] + [structure._CHECKS]
    fields = [spec.name for spec in dataclasses.fields(Tolerances)]
    sources = [path.read_text() for path in sorted(PACKAGE.rglob("*.py"))]
    assert unchecked_tolerances(fields, tables, sources) == []


def unwitnessed_checks(tables, witnesses):
    """(place, check) of every check in ``tables`` (place -> checks) that no
    ``witnesses`` row (place, check, ...) names."""
    named = {(place, check) for place, check, *_ in witnesses}
    return [
        (place, check)
        for place, checks in tables.items()
        for check in checks
        if (place, check) not in named
    ]


def test_the_witness_scan_sees_a_missing_or_misfiled_row():
    gate = ("condition4", "fibre_deviation", "cond4")
    flat = ("flat", "max_abs", "flat")
    tables = {"classify": (gate, flat), "metric": (gate,), "fit": ()}
    rows = [("classify", gate, "gumbel", {}), ("curvature", gate, "gumbel", {})]
    assert unwitnessed_checks(tables, rows) == [("classify", flat), ("metric", gate)]


def test_every_check_has_a_witness_that_fails_it():
    # a check that no model fails decides nothing; test_witnesses runs each row
    assert unwitnessed_checks(check_tables(), WITNESSES) == []


def gates_without_tol(source):
    """(line, name) of every ``metric_at`` or ``connection_at`` call without a ``tol=``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ("metric_at", "connection_at"):
                if not any(keyword.arg == "tol" for keyword in node.keywords):
                    yield node.lineno, name


def test_the_gate_scan_sees_bare_and_qualified_calls():
    source = (
        "def f(model, x, tol):\n"
        "    metric_at(model, x, tol=tol)\n"
        "    geometry.connection_at(model, x)\n"
        "    return metric_at(model, x, tol)\n"
    )
    assert list(gates_without_tol(source)) == [(3, "connection_at"), (4, "metric_at")]


def test_every_condition4_gate_gets_the_callers_tolerances():
    # a gate called without tol= checks condition 4 against the defaults,
    # which the caller cannot loosen
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, name in gates_without_tol(path.read_text())
    ]
    assert not found, found


def raises_after_a_failed_check(source):
    """(function, line) of every ``if`` whose test calls ``passes`` (bare or
    qualified) and one of whose branches raises."""
    found = []

    def calls_passes(node):
        return isinstance(node, ast.Call) and "passes" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        )

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.If) and any(calls_passes(sub) for sub in ast.walk(node.test)):
            branches = node.body + node.orelse
            if any(isinstance(sub, ast.Raise) for stmt in branches for sub in ast.walk(stmt)):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_the_raise_scan_sees_both_branches_and_qualified_calls():
    source = (
        "def gate(x, tol):\n"
        "    if not passes(x, tol.cond4):\n"
        "        raise Failed(x)\n"
        "def solve(x, tol):\n"
        "    if core.passes(x, tol.path):\n"
        "        return x\n"
        "    else:\n"
        "        raise Failed(x)\n"
        "def judge(x, tol):\n"
        "    if not passes(x, tol.flat):\n"
        "        return 'fail'\n"
        "    if x is None:\n"
        "        raise Failed(x)\n"
        "    return 'pass' if passes(x, tol.flat) else 'fail'\n"
    )
    assert raises_after_a_failed_check(source) == [("gate", 2), ("solve", 5)]


def test_only_the_condition4_gate_raises_on_a_failed_check():
    # a failed check is a verdict the caller judges; the gate alone raises,
    # since a field cannot evaluate past it
    found = [
        (str(path.relative_to(ROOT)), function)
        for path in sorted(PACKAGE.rglob("*.py"))
        for function, _ in raises_after_a_failed_check(path.read_text())
    ]
    assert found == [("src/dsm_geom/geometry.py", "_gate")], found


def point_checks_over_lists(source):
    """(line, name) of every ``require_point`` or ``<x>.require`` check, bare or
    qualified, called in a loop or a comprehension or mapped over a list."""
    names = ("require_point", "require")
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

    def name_of(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and name_of(node.func) == "map" and node.args:
            if name_of(node.args[0]) in names:
                found.add((node.lineno, name_of(node.args[0])))
        if isinstance(node, loops):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and name_of(sub.func) in names:
                    found.add((sub.lineno, name_of(sub.func)))
    return sorted(found)


def test_the_point_list_scan_sees_loops_comprehensions_and_map():
    source = (
        "def f(points, chart, domain):\n"
        "    first = require_point(points[0], domain)\n"
        "    grid = [core.require_point(p, domain) for p in points]\n"
        "    for p in points:\n"
        "        chart.require(p)\n"
        "    return list(map(require_point, points)), {chart.require(p) for p in grid}\n"
    )
    assert point_checks_over_lists(source) == [
        (3, "require_point"), (5, "require"), (6, "require"), (6, "require_point"),
    ]


def test_only_core_checks_a_list_of_points():
    # core.require_points is the one check of a grid, target or way-point
    # list: it refuses an empty list or one over core.MAX_POINTS before it
    # checks any point
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "core.py"
        for line, name in point_checks_over_lists(path.read_text())
    ]
    assert not found, found


def readers(source, name):
    """The module-level function or class (None for module-level code) of
    every read of ``name``, bare or as an attribute."""
    found = set()
    for node in ast.parse(source).body:
        owner = getattr(node, "name", None)
        for sub in ast.walk(node):
            read = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
            if read == name and isinstance(getattr(sub, "ctx", None), ast.Load):
                found.add(owner)
    return found


def test_the_reader_scan_sees_bare_qualified_and_module_level_reads():
    source = (
        "from .core import MAX_POINTS\n"
        "LIMIT = MAX_POINTS\n"
        "def grid(n):\n"
        "    return n <= core.MAX_POINTS\n"
        "def other(n, MAX_POINTS=1):\n"
        "    return n\n"
        "class Chart:\n"
        "    def count(self):\n"
        "        return MAX_POINTS\n"
    )
    assert readers(source, "MAX_POINTS") == {None, "grid", "Chart"}


def test_only_core_and_default_grid_read_the_point_budget():
    # default_grid charges a per-axis count before it builds the grid; every
    # point list is charged by core.require_points
    found = {
        (str(path.relative_to(ROOT)), owner)
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "core.py"
        for owner in readers(path.read_text(), "MAX_POINTS")
    }
    assert found <= {("src/dsm_geom/structure.py", "default_grid")}, found


@pytest.mark.parametrize("name", ["_along", "_l_path", "_rk4"])
def test_only_transport_reads_the_path_solvers(name):
    # structure kept its own two-path loop on _along and _l_path, and the
    # covariant-constant field a spot-checked third; every path system now
    # goes through transport._two_paths, and the geodesic alone steps RK4
    found = {
        str(path.relative_to(ROOT))
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "transport.py" and readers(path.read_text(), name)
    }
    assert not found, found


@pytest.mark.parametrize("name", ["_connection", "_gate_terms", "_solve_terms", "_FibreGate"])
def test_structure_drives_no_gate_or_solve_internals(name):
    # geometry._fibre_stack returns each point's values or its exception, so
    # classify reads results and never runs a gate or a probe solve itself
    source = (PACKAGE / "structure.py").read_text()
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "geometry"
        for alias in node.names
    }
    assert name not in imported and not readers(source, name)


def test_the_reader_scan_sees_calls_in_handlers_lambdas_and_nested_functions():
    source = (
        "def _op_a(config):\n"
        "    return make_document(config, {})\n"
        "def _op_b(config):\n"
        "    build = lambda: cli.make_document(config, {})\n"
        "    return build()\n"
        "def _op_c(config):\n"
        "    return functools.partial(make_document, config)\n"
        "def make_document(config, results):\n"
        "    return {}\n"
        "def _run_op(config):\n"
        "    def build():\n"
        "        return make_document(config, {})\n"
        "    return build()\n"
    )
    assert readers(source, "make_document") == {"_op_a", "_op_b", "_op_c", "_run_op"}


@pytest.mark.parametrize("name", ["make_document", "judge"])
def test_run_op_alone_judges_and_builds_a_document(name):
    # an op's handler returns its numbers; _run_op judges them by the op's
    # _OPS row and builds the document, for --model all too
    found = {
        (str(path.relative_to(ROOT)), owner)
        for path in sorted(PACKAGE.rglob("*.py"))
        for owner in readers(path.read_text(), name)
    }
    assert found == {("src/dsm_geom/cli.py", "_run_op")}, found


def unread_definitions(sources, exempt):
    """(module, line, name) of every module-level function, class or public
    assignment in ``sources`` (dotted module -> source) that no statement of
    any module reads, its own definition excepted, and that ``exempt`` (a set
    of (module, name)) does not name."""
    return unread_names(
        sources,
        lambda node, module, name: (isinstance(node, _DEFINITIONS) or not name.startswith("_"))
        and (module, name) not in exempt,
    )


def traced_names(tracer_source):
    """(module, name) of every function in the tracer's ``_FUNCTIONS`` table
    and every class in its ``_METHODS`` table, read from its source."""
    tables = {
        target.id: ast.literal_eval(node.value)
        for node in ast.parse(tracer_source).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("_FUNCTIONS", "_METHODS")
    }
    return {(row[0], row[1]) for table in tables.values() for row in table}


# module-level definitions that no code in the package reads, each with its reason
READ_ONLY_OUTSIDE_THE_PACKAGE = {
    # every entry built with its defaults: the benchmark's setup times it
    # (perfbench/child.py, setup.catalogue_build_s) and the suite's fixture uses it
    ("dsm_geom.models", "catalogue"),
}


def test_the_test_only_scan_flags_an_unread_function_and_passes_a_traced_one():
    sources = {
        "pkg.a": (
            "def helper():\n"
            "    return 1\n"
            "def only_tests():\n"
            "    return only_tests()\n"
            "def traced():\n"
            "    return helper() + LIMIT\n"
            "class Exported:\n"
            "    pass\n"
            "__all__ = ['Exported']\n"
            "LIMIT, UNREAD, _PRIVATE = 1, 2, 3\n"
        ),
        "pkg.b": "from .a import traced\n",
    }
    tracer = (
        "_FUNCTIONS = (('pkg.a', 'traced', 'a.traced'),)\n"
        "_METHODS = (('pkg.c', 'Field', '__call__', 'c.Field'),)\n"
        "_OTHER = (('pkg.a', 'only_tests', 'a.only_tests'),)\n"
    )
    exempt = traced_names(tracer)
    assert exempt == {("pkg.a", "traced"), ("pkg.c", "Field")}
    assert unread_definitions(sources, exempt) == [
        ("pkg.a", 3, "only_tests"),
        ("pkg.a", 7, "Exported"),
        ("pkg.a", 10, "UNREAD"),
    ]


def test_no_src_definition_is_read_only_by_tests():
    # code that only tests call leaves src/; the tracer's tables are parsed,
    # never imported, so a traced name stays while the benchmark times it
    sources = {
        ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts).removesuffix(
            ".__init__"
        ): path.read_text()
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    exempt = traced_names((ROOT / "perfbench" / "tracer.py").read_text())
    found = unread_definitions(sources, exempt | READ_ONLY_OUTSIDE_THE_PACKAGE)
    assert not found, found
