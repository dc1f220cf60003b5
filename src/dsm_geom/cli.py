"""Batch command-line front end.

One invocation runs one operation on one catalogue model and writes a
JSON report (plus a CSV file for curve traces).  ``--op report --model
all`` runs the whole catalogue and acts as the acceptance harness.

Exit codes: 0 success (expected-failure verdicts are data), 1 config
error, 2 numerical failure, 3 I/O error.
"""
from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import os
import sys
import time
import typing
from typing import Optional

import numpy as np

from . import geometry, models, structure, transport
from .core import (
    DataSet,
    GaussianData,
    MomentData,
    RegressionData,
    Tolerances,
)
from .errors import (
    Condition4Violated,
    DomainError,
    DsmGeomError,
    HessianStructureViolated,
    MissingStatistic,
    NumericalFailure,
    Unsupported,
)
from .fit import fit

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

_REPORT_FIELDS = {
    "schema_version",
    "model",
    "op",
    "inputs",
    "results",
    "residuals",
    "verdicts",
    "tolerances",
    "runtime_ms",
}


class ConfigError(DsmGeomError):
    pass


@dataclasses.dataclass
class RunConfig:
    """Validated description of one batch run."""

    model: str
    op: str
    levels: Optional[list[float]] = None
    kappa: Optional[float] = None
    lam: Optional[float] = None
    mu0: Optional[float] = None
    sigma0: Optional[float] = None
    at: Optional[list[float]] = None
    start: Optional[list[float]] = None
    end: Optional[list[float]] = None
    velocity: Optional[list[float]] = None
    vector: Optional[list[float]] = None
    targets: Optional[list[list[float]]] = None
    other: Optional[list[float]] = None
    t_end: Optional[float] = None
    step: Optional[float] = None
    grid: str = "default"
    data: Optional[dict] = None
    field_source: str = "fibre"
    fibre_k: int = geometry.FIBRE_K_DEFAULT
    trials: int = 1000
    tolerances: dict = dataclasses.field(default_factory=dict)
    seed: int = 42
    out: str = "report.json"

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "model" not in payload or "op" not in payload:
            raise ConfigError("config needs 'model' and 'op'")
        hints = typing.get_type_hints(cls)
        for name, value in payload.items():
            if not _conforms(value, hints[name]):
                kind = inspect.formatannotation(hints[name])
                raise ConfigError(
                    f"config field '{name}' must be {kind} with finite numbers, got {value!r}"
                )
        config = cls(**payload)
        config.validate()
        return config

    def validate(self):
        if self.op not in OPS:
            raise ConfigError(f"unknown op '{self.op}'; choose from {OPS}")
        if self.model != "all" and self.model not in models.MODEL_NAMES:
            raise ConfigError(
                f"unknown model '{self.model}'; choose from {models.MODEL_NAMES}"
            )
        if self.model == "all" and self.op != "report":
            raise ConfigError("--model all is only valid with --op report")
        takes = models.options(self.model) if self.model != "all" else ()
        for name in _MODEL_OPTIONS:
            if getattr(self, name) is not None and name not in takes:
                known = ", ".join(_flag(option) for option in takes) or "none"
                raise ConfigError(
                    f"--model {self.model} takes no {_flag(name)} (its options: {known})"
                )
        _, needs, may = _OPS[self.op]
        for name in _RUN_OPTIONS:
            if getattr(self, name) != _DEFAULTS[name] and name not in needs + may:
                known = ", ".join(_flag(option) for option in needs + may) or "none"
                raise ConfigError(f"op '{self.op}' takes no {_flag(name)} (its options: {known})")
        # a required option given empty or zero is as good as missing
        unset = [_flag(name) for name in needs if not getattr(self, name)]
        if unset:
            raise ConfigError(
                f"op '{self.op}' needs {', '.join(unset)}, each non-empty and nonzero"
            )
        if self.step is not None and self.step <= 0:
            raise ConfigError(f"--step must be > 0, got {self.step}")
        if self.fibre_k < 1:
            raise ConfigError(f"--fibre-k must be >= 1, got {self.fibre_k}")
        try:
            self.tol  # the constructor checks every key and value
        except (DomainError, TypeError) as err:
            keys = [spec.name for spec in dataclasses.fields(Tolerances)]
            raise ConfigError(f"bad tolerances (keys {keys}): {err}") from None

    @property
    def tol(self) -> Tolerances:
        return Tolerances(**self.tolerances)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def build_model(self):
        given = {name: getattr(self, name) for name in models.options(self.model)}
        given = {name: value for name, value in given.items() if value is not None}
        try:
            return models.build(self.model, **given)
        except ArithmeticError as err:
            options = ", ".join(f"{_flag(name)} {value}" for name, value in given.items())
            raise ConfigError(f"{options} out of range for {self.model} ({err})") from None


def _conforms(value, hint) -> bool:
    """Whether ``value`` has type ``hint``, list elements included; numbers are finite."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return any(_conforms(value, arg) for arg in args)
    if origin is list:
        return isinstance(value, list) and all(_conforms(item, args[0]) for item in value)
    kinds = (int, float) if hint is float else hint
    finite = not isinstance(value, float) or math.isfinite(value)
    return isinstance(value, kinds) and not isinstance(value, bool) and finite


def parse_data_spec(spec: dict) -> DataSet:
    """Build a data set from a JSON payload.

    kinds: gaussian {mean, std}; moments {statistic: value, ...};
    regression {couples: [[x, y], ...]}.  Every entry of the data set's
    statistic table must come out a finite number.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("data spec must be an object with a 'kind'")
    kind = spec["kind"]
    body = {key: value for key, value in spec.items() if key != "kind"}
    for key, value in body.items():
        if not _conforms(value, list[list[float]] if kind == "regression" else float):
            raise ConfigError(f"data spec key '{key}' needs finite numbers, got {value!r}")
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if kind == "gaussian":
                data = GaussianData(body["mean"], body["std"])
            elif kind == "moments":
                data = MomentData(body)
            elif kind == "regression":
                data = RegressionData(body["couples"])
            else:
                raise ConfigError(f"unknown data kind '{kind}'")
            # a float sum that overflows gives inf without an exception
            for statistic_id, value in data.moments.items():
                if not math.isfinite(value):
                    raise OverflowError(f"statistic '{statistic_id}' overflows")
            return data
    except KeyError as err:
        raise ConfigError(f"data spec of kind '{kind}' needs key {err}") from None
    except ArithmeticError as err:
        keys = ", ".join(f"'{key}'" for key in body)
        raise ConfigError(f"data spec of kind '{kind}' out of range in {keys} ({err})") from None


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, float) and value != value:  # NaN
        return None
    return value


def make_document(config, results, residuals=None, verdicts=None, runtime_ms=None):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "model": config.model,
        "op": config.op,
        "inputs": _jsonable(config.to_dict()),
        "results": _jsonable(results),
        "residuals": _jsonable(residuals or {}),
        "verdicts": _jsonable(verdicts or {}),
        "tolerances": _jsonable(config.tolerances),
    }
    if runtime_ms is not None:
        doc["runtime_ms"] = runtime_ms
    return doc


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    unknown = set(doc) - _REPORT_FIELDS
    if unknown:
        raise ConfigError(f"report document carries unknown fields: {sorted(unknown)}")
    missing = (_REPORT_FIELDS - {"runtime_ms"}) - set(doc)
    if missing:
        raise ConfigError(f"report document misses fields: {sorted(missing)}")
    return doc


def write_json(path: str, document: dict):
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def write_trace_csv(path: str, trace: transport.Trace, coord_names):
    columns = ["t"] + list(coord_names)
    has_vectors = trace.vectors is not None
    if has_vectors:
        columns += [f"v_{name}" for name in coord_names]
    rows = []
    for index in range(len(trace.times)):
        row = [trace.times[index], *trace.points[index]]
        if has_vectors:
            row.extend(trace.vectors[index])
        rows.append(",".join(f"{value:.17g}" for value in row))
    text = ",".join(columns) + "\n" + "\n".join(rows) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _out_paths(out: str):
    base, ext = os.path.splitext(out)
    if ext.lower() == ".csv":
        return base + ".json", out
    return out, base + ".csv"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _grid_for(config, model):
    if config.grid == "default":
        return structure.default_grid(model)
    try:
        if ";" in config.grid or "," in config.grid:
            grid = [np.array(point) for point in _point_list(config.grid)]
        else:
            per_axis = int(config.grid)
            grid = structure.default_grid(model, per_axis) if per_axis >= 1 else []
    except ValueError:
        raise ConfigError(
            f"--grid expects 'default', a count or points 'a,b;c,d', got '{config.grid}'"
        ) from None
    if not grid:
        raise ConfigError(f"--grid '{config.grid}' has no point; a count must be >= 1")
    return grid


def _op_fit(config, model):
    data = parse_data_spec(config.data)
    result = fit(model, data, config.start)
    return make_document(
        config,
        results={
            "theta_star": result.theta_star,
            "divergence_value": result.divergence_value,
            "gradient_norm": result.gradient_norm,
            "iterations": result.iterations,
            "converged": result.converged,
        },
    ), None


def _op_metric(config, model):
    try:
        evaluation = geometry.metric_at(
            model, config.at, fibre_k=config.fibre_k, tol=config.tol
        )
    except Condition4Violated as err:
        evidence = structure.condition4_evidence(model, config.at, err)
        return make_document(
            config, results={"evidence": evidence}, verdicts={"condition4": "fail"}
        ), None
    return make_document(
        config,
        results={"metric": evaluation.matrix, "members": list(evaluation.member_labels)},
        residuals={"fibre_deviation": evaluation.fibre_deviation},
        verdicts={"condition4": "pass"},
    ), None


def _op_connection(config, model):
    try:
        evaluation = geometry.connection_at(model, config.at, tol=config.tol)
    except HessianStructureViolated as err:
        return make_document(
            config,
            results={"family_estimates": [est.tolist() for est in err.family_estimates]},
            residuals={"probe_consistency": err.deviation},
            verdicts={"hessian_structure": "fail"},
        ), None
    return make_document(
        config,
        results={"connection": evaluation.omega},
        residuals={"probe_consistency": evaluation.probe_consistency},
        verdicts={"hessian_structure": "pass"},
    ), None


def _op_curvature(config, model):
    tensor = geometry.curvature_at(
        model, config.at, connection=geometry.connection_field(model, tol=config.tol)
    )
    return make_document(
        config,
        results={"curvature": tensor.components},
        residuals={"max_abs": tensor.max_abs},
        verdicts={"flat": "pass" if tensor.max_abs <= config.tol.flat else "fail"},
    ), None


def _op_classify(config, model):
    grid = _grid_for(config, model)
    report = structure.classify(model, grid, fibre_k=config.fibre_k, tol=config.tol)
    return make_document(config, results=report.to_dict(), verdicts=report.verdicts), None


def _op_affine(config, model):
    amap = structure.affine_coordinates(model, config.start, config.targets, tol=config.tol)
    return make_document(
        config,
        results={
            "reference": amap.reference,
            "targets": amap.targets,
            "values": amap.values,
            "gradients": amap.gradients,
        },
        residuals={"path_independence": max(amap.path_residuals)},
    ), None


def _op_massieu(config, model):
    sample = structure.massieu(model, config.start, config.targets, tol=config.tol)
    return make_document(
        config,
        results={
            "reference": sample.reference,
            "targets": sample.targets,
            "potentials": sample.potentials,
            "covectors": sample.covectors,
        },
        residuals={
            "path_independence": max(sample.path_residuals),
            "hessian_vs_metric": max(sample.hessian_residuals),
            "curl": max(sample.curl_residuals),
        },
    ), None


def _connection_field(config, model):
    return geometry.connection_field(model, source=config.field_source, tol=config.tol)


def _op_geodesic(config, model):
    trace = transport.geodesic(
        model,
        config.start,
        config.velocity,
        config.t_end,
        step=config.step,
        connection=_connection_field(config, model),
    )
    return make_document(
        config,
        results={
            "end_point": trace.end_point,
            "end_velocity": trace.end_vector,
            "samples": len(trace.times),
            "flags": list(trace.flags),
        },
    ), trace


def _op_transport(config, model):
    trace = transport.parallel_transport(
        model,
        [np.array(config.start, dtype=float), np.array(config.end, dtype=float)],
        config.vector,
        connection=_connection_field(config, model),
        tol=config.tol,
    )
    return make_document(
        config,
        results={
            "end_point": trace.end_point,
            "end_vector": trace.end_vector,
            "flags": list(trace.flags),
        },
    ), trace


def _op_field(config, model):
    grid = _grid_for(config, model)
    trace = transport.covariant_constant_field(
        model, config.start, config.vector, grid,
        connection=_connection_field(config, model), tol=config.tol,
    )
    return make_document(
        config,
        results={"points": trace.points, "vectors": trace.vectors},
        residuals={"path_residual": trace.metadata.get("path_residual")},
    ), trace


def _op_pythagoras(config, model):
    report = structure.pythagorean_check(
        model, config.at, config.other, fibre_k=config.fibre_k
    )
    return make_document(
        config,
        results={
            "induced_value": report.induced_value,
            "members": list(report.member_labels),
        },
        residuals={"fibre_deviation": report.max_deviation},
    ), None


def _op_report(config, model):
    return model_report(model, config), None


# each op's handler, the options it cannot run without and the ones it may
# take, in --op order
_OPS = {
    "fit": (_op_fit, ("data", "start"), ()),
    "metric": (_op_metric, ("at",), ("fibre_k",)),
    "connection": (_op_connection, ("at",), ()),
    "curvature": (_op_curvature, ("at",), ()),
    "classify": (_op_classify, (), ("grid", "fibre_k")),
    "affine": (_op_affine, ("start", "targets"), ()),
    "massieu": (_op_massieu, ("start", "targets"), ()),
    "geodesic": (_op_geodesic, ("start", "velocity", "t_end"), ("step", "field_source")),
    "transport": (_op_transport, ("start", "end", "vector"), ("field_source",)),
    "field": (_op_field, ("start", "vector"), ("grid", "field_source")),
    "pythagoras": (_op_pythagoras, ("at", "other"), ("fibre_k",)),
    "report": (_op_report, (), ("grid", "fibre_k", "seed")),
}
OPS = tuple(_OPS)

_MODEL_OPTIONS = sorted({opt for name in models.MODEL_NAMES for opt in models.options(name)})

# the run options an op takes only if it names them: set to anything but
# their RunConfig default, they are a config error (no op reads --trials)
_RUN_OPTIONS = (
    "at", "start", "end", "velocity", "vector", "targets", "other", "t_end", "step", "data",
    "grid", "field_source", "fibre_k", "trials", "seed",
)
_DEFAULTS = {spec.name: spec.default for spec in dataclasses.fields(RunConfig)}

_POINT_OPTIONS = ("at", "start", "end", "velocity", "vector", "other")


def _flag(name: str) -> str:
    """The command-line spelling of a RunConfig field, such as ``--t``."""
    return next(act.option_strings[0] for act in build_parser()._actions if act.dest == name)


def _check_dims(config, dim):
    """Each point and vector option needs one value per chart coordinate."""
    given = [(name, getattr(config, name)) for name in _POINT_OPTIONS]
    given += [("targets", point) for point in config.targets or []]
    for name, value in given:
        if value is not None and len(value) != dim:
            raise ConfigError(
                f"--{name} needs {dim} values for {config.model}, got {len(value)}"
            )


def _point_of(config) -> str:
    """' at --at 0.0,1.0' for the chart point the op starts from, '' for an op without one."""
    for name in _OPS[config.op][1]:
        if name in ("at", "start"):
            value = ",".join(str(coordinate) for coordinate in getattr(config, name))
            return f" at {_flag(name)} {value}"
    return ""


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
                _check_dims(config, model.chart.dim)
                started = time.perf_counter()
                document, trace = _OPS[config.op][0](config, model)
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


def model_report(model, config: RunConfig) -> dict:
    """classify + oracle comparison for one model (deterministic)."""
    tol = config.tol
    report = structure.classify(model, _grid_for(config, model), config.fibre_k, tol)
    oracle = model.oracle
    oracle_gaps = {}
    if oracle is not None and oracle.metric is not None:
        oracle_gaps = {"metric": 0.0, "connection": 0.0}
        for point in model.chart.random_points(np.random.default_rng(config.seed), 5):
            try:
                if oracle.connection is not None and model.has_probes:
                    # the connection's condition-4 gate evaluates the metric
                    found = geometry.connection_at(model, point, fibre_k=config.fibre_k, tol=tol)
                    gap = geometry._relative_gap(found.omega, oracle.connection(point))
                    oracle_gaps["connection"] = max(oracle_gaps["connection"], gap)
                    g = found.metric.matrix
                else:
                    g = geometry.metric_at(model, point, fibre_k=config.fibre_k, tol=tol).matrix
                gap = geometry._relative_gap(g, oracle.metric(point), floor=1e-12)
                oracle_gaps["metric"] = max(oracle_gaps["metric"], gap)
            except ArithmeticError as err:
                raise NumericalFailure(
                    f"{type(err).__name__} in the oracle comparison at {point.tolist()}: {err}"
                ) from None
    return make_document(
        config,
        results={"classification": report.to_dict(), "oracle_comparison": oracle_gaps},
        verdicts=report.verdicts,
    )


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
        document = model_report(models.build(name), model_config)
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
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _vector(text):
    return [float(chunk) for chunk in text.split(",") if chunk.strip()]


def _point_list(text):
    return [_vector(chunk) for chunk in text.split(";") if chunk.strip()]


def build_parser() -> _Parser:
    parser = _Parser(prog="dsm-geom", description=__doc__)
    parser.add_argument("--model", required=True)
    parser.add_argument("--op", required=True, choices=OPS)
    parser.add_argument("--levels", type=_vector)
    parser.add_argument("--kappa", type=float)
    parser.add_argument("--lambda", dest="lam", type=float)
    parser.add_argument("--mu0", type=float)
    parser.add_argument("--sigma0", type=float)
    parser.add_argument("--at", type=_vector)
    parser.add_argument("--start", type=_vector)
    parser.add_argument("--end", type=_vector)
    parser.add_argument("--velocity", type=_vector)
    parser.add_argument("--vector", type=_vector)
    parser.add_argument("--targets", type=_point_list)
    parser.add_argument("--other", type=_vector)
    parser.add_argument("--t", dest="t_end", type=float)
    parser.add_argument("--step", type=float)
    parser.add_argument("--grid")
    parser.add_argument("--data", type=str, help="JSON data-set spec")
    parser.add_argument("--field", dest="field_source", choices=("fibre", "oracle"))
    parser.add_argument("--fibre-k", dest="fibre_k", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--tol", action="append", default=[], metavar="KEY=VAL")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    return parser


def config_from_args(argv) -> RunConfig:
    parser = build_parser()
    namespace = parser.parse_args(argv)
    tolerances = {}
    for item in namespace.tol:
        key, _, value = item.partition("=")
        try:
            tolerances[key.strip()] = float(value)
        except ValueError:
            raise ConfigError(f"--tol expects KEY=NUMBER, got '{item}'") from None
    payload = dict(vars(namespace), tolerances=tolerances)
    del payload["tol"]
    payload["data"] = json.loads(namespace.data) if namespace.data else None
    payload = {key: value for key, value in payload.items() if value is not None}
    return RunConfig.from_dict(payload)


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    try:
        config = config_from_args(argv)
    except (ConfigError, ValueError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
