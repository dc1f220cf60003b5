"""Batch command-line front end.

One invocation runs one operation on one catalogue model and writes a
JSON report (plus a CSV file for curve traces).  ``--op report --model
all`` runs the whole catalogue and acts as the acceptance harness.

Exit codes: 0 success (a failed check, such as a curved model's
path-dependence, is a verdict in the document), 1 config error, 2
numerical failure, 3 I/O error.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import pathlib
import reprlib
import sys
import time
from collections import namedtuple
from typing import Optional

import numpy as np

from . import geometry, models, structure, transport
from .core import (
    DataSet,
    GaussianData,
    RegressionData,
    Tolerances,
    bad_leaf,
    passes,
)
from .errors import (
    Condition4Violated,
    DomainError,
    DsmGeomError,
    MissingStatistic,
    NumericalFailure,
    Unsupported,
)
from .fit import fit

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class ConfigError(DsmGeomError):
    pass


# each data kind's builder and each key's list nesting; moments take any key, one number
_DATA_KINDS = {
    "gaussian": (GaussianData, {"mean": 0, "std": 0}),
    "regression": (RegressionData, {"couples": 2}),
    "moments": (DataSet, None),
}


def parse_data_spec(spec: dict) -> DataSet:
    """Build a data set from a JSON payload.

    kinds: gaussian {mean, std}; moments {statistic: value, ...};
    regression {couples: [[x, y], ...]}.  A key the kind does not take is
    refused, as is the first leaf that is not a finite number.  Every entry
    of the data set's statistic table must come out a finite number, and a
    table with mean_x and mean_x2 must imply a variance > 0, whatever its entropy.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("data spec must be an object with a 'kind'")
    kind = spec["kind"]
    if not (isinstance(kind, str) and kind in _DATA_KINDS):
        raise ConfigError(f"unknown data kind {reprlib.repr(kind)}")
    builder, depths = _DATA_KINDS[kind]
    body = {key: value for key, value in spec.items() if key != "kind"}
    for key, value in body.items():
        name = reprlib.repr(key)
        if depths is not None and key not in depths:
            raise ConfigError(
                f"data spec of kind '{kind}' takes no key {name}; "
                f"its keys are {', '.join(map(repr, depths))}"
            )
        if (leaf := bad_leaf(value, depths[key] if depths else 0)) is not None:
            raise ConfigError(f"data spec key {name} needs finite numbers, got {leaf}")
    for key in depths or ():
        if key not in body:
            raise ConfigError(f"data spec of kind '{kind}' needs key '{key}'")
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            data = builder(**body) if depths else builder(body)
            # a float sum that overflows gives inf without an exception
            for statistic_id, value in data.moments.items():
                if not math.isfinite(value):
                    raise OverflowError(f"statistic '{statistic_id}' overflows")
            mean, second = data.moments.get("mean_x"), data.moments.get("mean_x2")
            if None not in (mean, second) and not second > mean**2:
                raise ConfigError(f"data spec of kind '{kind}' implies mean_x2 - mean_x^2 <= 0")
            return data
    except ArithmeticError as err:
        keys = ", ".join(f"'{key}'" for key in body)
        raise ConfigError(f"data spec of kind '{kind}' out of range in {keys} ({err})") from None


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------


def _jsonable(value):
    """``value`` with numpy arrays and scalars as lists and numbers, each NaN as None."""
    if isinstance(value, (np.ndarray, np.generic)):
        return _jsonable(value.tolist())
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, float) and value != value:  # NaN
        return None
    return value


def judge(checks, residuals, tol: Tolerances) -> dict:
    """The verdict of each (verdict, residual, tolerance) check: ``pass``
    when ``residuals[residual]`` passes the tolerance (``core.passes``)."""
    return {
        verdict: "pass" if passes(residuals[residual], getattr(tol, key)) else "fail"
        for verdict, residual, key in checks
    }


def make_document(config, results, residuals, verdicts):
    """The op's document: its inputs, numbers, verdicts and tolerances."""
    return {
        "schema_version": SCHEMA_VERSION,
        "model": config.model,
        "op": config.op,
        "inputs": _jsonable(dataclasses.asdict(config)),
        "results": _jsonable(results),
        "residuals": _jsonable(residuals or {}),
        "verdicts": verdicts,
        "tolerances": _jsonable(config.tolerances),
    }


def write_json(path: str, document: dict):
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    pathlib.Path(path).write_text(text, encoding="utf-8", newline="\n")


def write_trace_csv(path: str, trace: transport.Trace, coord_names):
    columns = ["t", *coord_names, *(f"v_{name}" for name in coord_names)]
    rows = [
        ",".join(f"{value:.17g}" for value in (t, *point, *vector))
        for t, point, vector in zip(trace.times, trace.points, trace.vectors)
    ]
    text = ",".join(columns) + "\n" + "\n".join(rows) + "\n"
    pathlib.Path(path).write_text(text, encoding="utf-8", newline="\n")


def _out_paths(out: str):
    base, ext = os.path.splitext(out)
    if ext.lower() == ".csv":
        return base + ".json", out
    return out, base + ".csv"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _grid_for(config, model):
    """The grid ``--grid`` names; the library checks its size and points."""
    if config.grid == "default":
        return structure.default_grid(model)
    try:
        if ";" in config.grid or "," in config.grid:
            return _point_list(config.grid)
        per_axis = int(config.grid)
    except (ValueError, argparse.ArgumentTypeError):
        raise ConfigError(
            f"--grid expects 'default', a count or points 'a,b;c,d', got '{config.grid}'"
        ) from None
    return structure.default_grid(model, per_axis)


# an op's numbers; classify and report give their own verdicts, a path op its trace
_Outcome = namedtuple("_Outcome", "results residuals verdicts trace", defaults=(None,) * 3)


def _op_fit(config, model):
    data = parse_data_spec(config.data)
    return _Outcome(dataclasses.asdict(fit(model, data, config.start)))


def _op_metric(config, model):
    evaluation = geometry.metric_at(model, config.at, tol=config.tol)
    return _Outcome(
        {"metric": evaluation.matrix, "members": list(evaluation.member_labels)},
        {"fibre_deviation": evaluation.fibre_deviation},
    )


def _op_connection(config, model):
    evaluation = geometry.connection_at(model, config.at, tol=config.tol)
    if passes(evaluation.probe_consistency, config.tol.hessian):
        results = {"connection": evaluation.omega}
    else:  # the families disagree: there is no one connection to report
        results = {"family_estimates": evaluation.families}
    return _Outcome(results, {"probe_consistency": evaluation.probe_consistency})


def _connection_field(config, model):
    return geometry.connection_field(model, source=config.field_source, tol=config.tol)


def _op_curvature(config, model):
    tensor = geometry.curvature_at(geometry.connection_field(model, tol=config.tol), config.at)
    return _Outcome({"curvature": tensor.components}, {"max_abs": tensor.max_abs})


def _op_classify(config, model):
    report = structure.classify(model, _grid_for(config, model), tol=config.tol)
    return _Outcome(dataclasses.asdict(report), verdicts=report.verdicts)


def _op_two_paths(config, model):
    """affine or massieu: the solve's fields; its residual is the worst two-path gap."""
    solve = structure.affine_coordinates if config.op == "affine" else structure.massieu
    results = dataclasses.asdict(solve(model, config.start, config.targets, tol=config.tol))
    # np.max keeps a NaN, which max() drops when it is not first
    return _Outcome(results, {"path_independence": np.max(results.pop("path_residuals"))})


def _op_geodesic(config, model):
    trace = transport.geodesic(
        _connection_field(config, model), config.start, config.velocity, config.t_end, config.step
    )
    results = {
        "end_point": trace.end_point,
        "end_velocity": trace.end_vector,
        "samples": len(trace.times),
        "flags": list(trace.flags),
    }
    return _Outcome(results, trace=trace)


def _op_transport(config, model):
    trace = transport.parallel_transport(
        _connection_field(config, model), [config.start, config.end], config.vector
    )
    results = {
        "end_point": trace.end_point,
        "end_vector": trace.end_vector,
        "flags": list(trace.flags),
    }
    return _Outcome(results, trace=trace)


def _op_field(config, model):
    grid = _grid_for(config, model)
    trace = transport.covariant_constant_field(
        _connection_field(config, model), config.start, config.vector, grid
    )
    results = {"points": trace.points, "vectors": trace.vectors}
    return _Outcome(results, {"path_residual": trace.path_residual}, trace=trace)


def _op_pythagoras(config, model):
    report = structure.pythagorean_check(model, config.at, config.other)
    return _Outcome(
        {"induced_value": report.induced_value, "members": list(report.member_labels)},
        {"fibre_deviation": report.max_deviation},
    )


def _op_report(config, model):
    results, verdicts = model_report(model, config)
    return _Outcome(results, verdicts=verdicts)


# each check: (verdict key, residual key, tolerance key), the shape of
# classify's _CHECKS; _GATE is metric_at's condition-4 gate
_GATE = ("condition4", "fibre_deviation", "cond4")
_PROBES = ("hessian_structure", "probe_consistency", "hessian")
_PATH = ("path_independence", "path_independence", "path")
_TWO_PATHS = ("path_residual", "path_residual", "flat")

# each op's handler, the options it cannot run without, the ones it may take
# and the checks that judge its residuals, in --op order; classify and
# report take their verdicts from structure.classify
_OPS = {
    "fit": (_op_fit, ("data", "start"), (), ()),
    "metric": (_op_metric, ("at",), (), (_GATE,)),
    "connection": (_op_connection, ("at",), (), (_PROBES,)),
    "curvature": (_op_curvature, ("at",), (), (("flat", "max_abs", "flat"),)),
    "classify": (_op_classify, (), ("grid",), ()),
    "affine": (_op_two_paths, ("start", "targets"), (), (_PATH,)),
    "massieu": (_op_two_paths, ("start", "targets"), (), (_PATH,)),
    "geodesic": (_op_geodesic, ("start", "velocity", "t_end"), ("step", "field_source"), ()),
    "transport": (_op_transport, ("start", "end", "vector"), ("field_source",), ()),
    "field": (_op_field, ("start", "vector"), ("grid", "field_source"), (_TWO_PATHS,)),
    "pythagoras": (_op_pythagoras, ("at", "other"), (), ()),
    "report": (_op_report, (), ("grid", "seed"), ()),
}
OPS = tuple(_OPS)

_MODEL_OPTIONS = sorted({opt for name in models.MODEL_NAMES for opt in models.options(name)})

# the options every op takes; any other run option given to an op that does
# not name it is a config error
_EVERY_OP = ("model", "op", "tolerances", "out")


def _point_of(config) -> str:
    """' at --at 0.0,1.0' for the chart point the op starts from, '' for an op without one."""
    for name in _OPS[config.op][1]:
        if name in ("at", "start"):
            value = ",".join(str(coordinate) for coordinate in getattr(config, name))
            return f" at {_flags()[name]} {value}"
    return ""


def _run_op(config, model):
    """The op's (document, trace): its numbers, judged by its checks unless it
    gives its own verdicts; a condition-4 failure at ``--at`` is a verdict, not an error."""
    handler, needs, _, checks = _OPS[config.op]
    try:
        outcome = handler(config, model)
    except Condition4Violated as err:
        if "at" not in needs:
            raise
        evidence = structure.condition4_evidence(model, err)
        outcome = _Outcome({"evidence": evidence}, {"fibre_deviation": err.deviation})
        checks = (_GATE,)
    verdicts = outcome.verdicts or judge(checks, outcome.residuals, config.tol)
    return make_document(config, outcome.results, outcome.residuals, verdicts), outcome.trace


def run(config: RunConfig) -> int:
    """Execute one operation and write its output files."""
    trace, table = None, None
    json_path, csv_path = _out_paths(config.out)
    try:
        # floating-point overflow, division by zero and NaN raise instead of warning
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if config.model == "all":
                documents, table = report_all(config)
            else:
                model = config.build_model()
                started = time.perf_counter()
                document, trace = _run_op(config, model)
                if config.op != "report":  # a report is deterministic: no wall-clock field
                    document["runtime_ms"] = int((time.perf_counter() - started) * 1000)
                documents = [(json_path, document)]
    except (ConfigError, DomainError, Unsupported, MissingStatistic) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DsmGeomError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ArithmeticError as err:  # overflow, division by zero or NaN inside the op
        print(
            f"numerical failure: {type(err).__name__} in {config.op}{_point_of(config)}: {err}",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    try:
        if config.model == "all":
            os.makedirs(config.out, exist_ok=True)
        for path, document in documents:
            write_json(path, document)
        if trace is not None:
            write_trace_csv(csv_path, trace, model.chart.names)
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    if table is not None:
        print(table)
    return EXIT_OK


def model_report(model, config: RunConfig):
    """classify + oracle comparison for one model (deterministic): its (results, verdicts)."""
    tol = config.tol
    report = structure.classify(model, _grid_for(config, model), tol=tol)
    oracle = model.oracle
    oracle_gaps = {}
    if oracle is not None and oracle.metric and oracle.connection:
        # each gap is the largest over the points; np.maximum keeps a NaN, which max() may drop
        oracle_gaps = {"metric": 0.0, "connection": 0.0}
        for point in model.chart.random_points(np.random.default_rng(config.seed), 5):
            try:
                # the connection's condition-4 gate evaluates the metric; a
                # probe-family disagreement is classify's verdict, not this one's
                found = geometry.connection_at(model, point, tol=tol)
                gap = geometry._relative_gap(found.omega, oracle.connection(point))
                oracle_gaps["connection"] = float(np.maximum(oracle_gaps["connection"], gap))
                g = found.metric.matrix
                gap = geometry._relative_gap(g, oracle.metric(point), floor=1e-12)
                oracle_gaps["metric"] = float(np.maximum(oracle_gaps["metric"], gap))
            except Condition4Violated:  # no gap is measured at a refused point: both are NaN
                oracle_gaps = {"metric": math.nan, "connection": math.nan}
                break
            except ArithmeticError as err:
                raise NumericalFailure(
                    f"{type(err).__name__} in the oracle comparison at {point.tolist()}: {err}"
                ) from None
    results = {"classification": dataclasses.asdict(report), "oracle_comparison": oracle_gaps}
    return results, report.verdicts


def report_all(config: RunConfig):
    """Classify the whole catalogue: one document per model plus a summary.

    Returns the ``(path, document)`` pairs to write under the ``config.out``
    directory and the verdict table to print.  Documents omit wall-clock
    timing and the output directory, so reruns with the same seed are
    byte-identical wherever they write.
    """
    documents, rows = [], []
    for name in sorted(models.MODEL_NAMES):
        model_config = dataclasses.replace(config, model=name, out="report.json")
        document, _ = _run_op(model_config, models.build(name))
        documents.append((os.path.join(config.out, f"{name}.json"), document))
        rows.append({"model": name, **document["verdicts"]})
    summary = {"schema_version": SCHEMA_VERSION, "seed": config.seed, "models": rows}
    documents.append((os.path.join(config.out, "summary.json"), summary))
    width = max(len(row["model"]) for row in rows)
    table = "\n".join(
        f"{row['model']:<{width}}  condition4={row['condition4']:<14}"
        f"hessian={row['hessian_structure']:<14}"
        f"exponential_family={row['exponential_family']}"
        for row in rows
    )
    return documents, table


# ---------------------------------------------------------------------------
# Run options and argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to usage lines and exit code 2
        raise ConfigError(message)


def _number(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expects finite numbers, got '{text}'")
    return value


def _vector(text):
    return [_number(chunk) for chunk in text.split(",") if chunk.strip()]


def _point_list(text):
    return [_vector(chunk) for chunk in text.split(";") if chunk.strip()]


def _option(flag, default=None, **parse):
    """A RunConfig field declared with its ``flag`` and the argparse keywords that
    ``parse`` it: a required option has no default, a callable default is a factory."""
    metadata = {"flag": flag, "parse": parse}
    if parse.get("required"):
        return dataclasses.field(metadata=metadata)
    if callable(default):
        return dataclasses.field(default_factory=default, metadata=metadata)
    return dataclasses.field(default=default, metadata=metadata)


@dataclasses.dataclass
class RunConfig:
    """Validated description of one batch run; each field declares its option."""

    model: str = _option("--model", required=True, choices=("all", *models.MODEL_NAMES))
    op: str = _option("--op", required=True, choices=OPS)
    levels: Optional[list[float]] = _option("--levels", type=_vector)
    kappa: Optional[float] = _option("--kappa", type=_number)
    lam: Optional[float] = _option("--lambda", type=_number)
    mu0: Optional[float] = _option("--mu0", type=_number)
    sigma0: Optional[float] = _option("--sigma0", type=_number)
    at: Optional[list[float]] = _option("--at", type=_vector)
    start: Optional[list[float]] = _option("--start", type=_vector)
    end: Optional[list[float]] = _option("--end", type=_vector)
    velocity: Optional[list[float]] = _option("--velocity", type=_vector)
    vector: Optional[list[float]] = _option("--vector", type=_vector)
    targets: Optional[list[list[float]]] = _option("--targets", type=_point_list)
    other: Optional[list[float]] = _option("--other", type=_vector)
    t_end: Optional[float] = _option("--t", type=_number)
    step: Optional[float] = _option("--step", type=_number)
    grid: str = _option("--grid", "default")
    data: Optional[dict] = _option("--data", help="JSON data-set spec")
    field_source: str = _option("--field", "fibre", choices=("fibre", "oracle"))
    tolerances: dict = _option("--tol", dict, action="append", metavar="KEY=VAL")
    seed: int = _option("--seed", 42, type=int)
    out: str = _option("--out", "report.json")

    def validate(self, given):
        """Check the run as a whole; ``given`` names the options set on the command line."""
        if self.model == "all" and self.op != "report":
            raise ConfigError("--model all is only valid with --op report")
        takes = models.options(self.model) if self.model != "all" else ()
        _, needs, may, _ = _OPS[self.op]
        for name in given:
            if name in _MODEL_OPTIONS and name not in takes:
                known = ", ".join(_flags()[option] for option in takes) or "none"
                raise ConfigError(
                    f"--model {self.model} takes no {_flags()[name]} (its options: {known})"
                )
            if name not in (*_MODEL_OPTIONS, *_EVERY_OP, *needs, *may):
                known = ", ".join(_flags()[option] for option in needs + may) or "none"
                flag = _flags()[name]
                raise ConfigError(f"op '{self.op}' takes no {flag} (its options: {known})")
        # an empty or zero value is refused by the library check that reads it
        unset = [_flags()[name] for name in needs if getattr(self, name) is None]
        if unset:
            raise ConfigError(f"op '{self.op}' needs {', '.join(unset)}")
        if self.seed < 0:  # numpy seeds its generators with non-negative integers only
            raise ConfigError(f"--seed must be >= 0, got {self.seed}")
        try:
            self.tol  # the constructor checks every key and value
        except (DomainError, TypeError) as err:
            keys = [spec.name for spec in dataclasses.fields(Tolerances)]
            raise ConfigError(f"bad tolerances (keys {keys}): {err}") from None

    @property
    def tol(self) -> Tolerances:
        return Tolerances(**self.tolerances)

    def build_model(self):
        given = {name: getattr(self, name) for name in models.options(self.model)}
        given = {name: value for name, value in given.items() if value is not None}
        try:
            return models.build(self.model, **given)
        except (ArithmeticError, DomainError) as err:
            flags = ", ".join(_flags()[name] for name in given)
            raise ConfigError(f"{flags} out of range for {self.model} ({err})") from None


def _flags() -> dict:
    """Each RunConfig field's command-line spelling, such as ``--t`` for ``t_end``."""
    return {field.name: field.metadata["flag"] for field in dataclasses.fields(RunConfig)}


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process: parsing keeps no state between calls."""
    parser = _Parser(prog="dsm-geom", description=__doc__)
    for field in dataclasses.fields(RunConfig):
        parser.add_argument(field.metadata["flag"], dest=field.name, **field.metadata["parse"])
    return parser


def config_from_args(argv) -> RunConfig:
    namespace = vars(build_parser().parse_args(argv))
    given = {name: value for name, value in namespace.items() if value is not None}
    tolerances = {}
    for item in given.get("tolerances", ()):
        key, _, value = item.partition("=")
        try:
            tolerances[key.strip()] = float(value)
        except ValueError:
            raise ConfigError(f"--tol expects KEY=NUMBER, got '{item}'") from None
    given["tolerances"] = tolerances
    if given.get("data"):
        try:
            given["data"] = json.loads(given["data"])
        except (ValueError, RecursionError) as err:  # nested past the recursion limit
            raise ConfigError(f"--data is not JSON: {err}") from None
    config = RunConfig(**given)
    config.validate(given)
    return config


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    try:
        config = config_from_args(argv)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
