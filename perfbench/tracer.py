"""Outside-in tracer for the dsm_geom package.

The tracer wraps the package's public functions where they are called, so
the package itself is not changed:

- every module-level name in a loaded ``dsm_geom`` module that is bound to a
  wrapped function is rebound to the wrapper (``structure``, ``transport``
  and ``cli`` import ``metric_at``, ``connection_field``, ``fit`` and others
  by name);
- ``MetricField.__call__``, ``ConnectionField.__call__`` and the
  ``ModelDefinition`` probe and fibre methods are wrapped on their classes,
  ``ChartSpec.contains`` and ``ChartSpec.require`` are counted there;
- the model callables (``divergence_fn``, ``gradient_fn``, ...) are wrapped
  on each instance that ``models.build`` returns.

Every wrapped call is counted.  With ``spans=True`` it also records a span
(name, start, end, parent) in per-thread buffers that stay in memory until
``save``.  Span stacks are thread-local because ``cli.report_all`` runs the
models on a thread pool; a span opened on a pool thread whose own stack is
empty takes as parent the innermost span open on the installing thread.

``uninstall`` restores every binding the tracer changed.
"""
from __future__ import annotations

import json
import sys
import threading
import time
from array import array

import numpy as np

LAYERS = ("models", "core", "numdiff", "geometry", "structure", "transport", "fit", "cli")

# (module, attribute, span name); the layer is the first part of the name
_FUNCTIONS = (
    ("dsm_geom.models", "build", "models.build"),
    ("dsm_geom.core", "evaluate_divergence", "core.evaluate_divergence"),
    ("dsm_geom.core", "divergence_gradient", "core.divergence_gradient"),
    ("dsm_geom.core", "divergence_hessian", "core.divergence_hessian"),
    ("dsm_geom.numdiff", "fd_gradient", "numdiff.fd_gradient"),
    ("dsm_geom.numdiff", "fd_hessian", "numdiff.fd_hessian"),
    ("dsm_geom.numdiff", "fd_field_derivative", "numdiff.fd_field_derivative"),
    ("dsm_geom.numdiff", "fd_jacobian", "numdiff.fd_jacobian"),
    ("dsm_geom.geometry", "metric_at", "geometry.metric_at"),
    ("dsm_geom.geometry", "connection_at", "geometry.connection_at"),
    ("dsm_geom.geometry", "curvature_at", "geometry.curvature_at"),
    ("dsm_geom.geometry", "codazzi_residual", "geometry.codazzi_residual"),
    ("dsm_geom.geometry", "dual_connection_at", "geometry.dual_connection_at"),
    ("dsm_geom.geometry", "torsion_residual", "geometry.torsion_residual"),
    ("dsm_geom.geometry", "metric_field", "geometry.metric_field"),
    ("dsm_geom.geometry", "connection_field", "geometry.connection_field"),
    ("dsm_geom.geometry", "cramer_rao_check", "geometry.cramer_rao_check"),
    ("dsm_geom.geometry", "metric_transform_check", "geometry.metric_transform_check"),
    ("dsm_geom.structure", "classify", "structure.classify"),
    ("dsm_geom.structure", "default_grid", "structure.default_grid"),
    ("dsm_geom.structure", "affine_coordinates", "structure.affine_coordinates"),
    ("dsm_geom.structure", "massieu", "structure.massieu"),
    ("dsm_geom.structure", "pythagorean_check", "structure.pythagorean_check"),
    (
        "dsm_geom.structure",
        "induced_divergence_geometry_check",
        "structure.induced_divergence_geometry_check",
    ),
    ("dsm_geom.transport", "geodesic", "transport.geodesic"),
    ("dsm_geom.transport", "parallel_transport", "transport.parallel_transport"),
    ("dsm_geom.transport", "covariant_constant_field", "transport.covariant_constant_field"),
    # the package attribute ``dsm_geom.fit`` is the function, not the module
    ("dsm_geom.fit", "fit", "fit.fit"),
    ("dsm_geom.fit", "closed_form_fit", "fit.closed_form_fit"),
    ("dsm_geom.fit", "fit_from_closed_form", "fit.fit_from_closed_form"),
    ("dsm_geom.cli", "main", "cli.main"),
    ("dsm_geom.cli", "run", "cli.run"),
    ("dsm_geom.cli", "config_from_args", "cli.config_from_args"),
    ("dsm_geom.cli", "parse_data_spec", "cli.parse_data_spec"),
    ("dsm_geom.cli", "make_document", "cli.make_document"),
    ("dsm_geom.cli", "model_report", "cli.model_report"),
    ("dsm_geom.cli", "report_all", "cli.report_all"),
    ("dsm_geom.cli", "write_json", "cli.write_json"),
    ("dsm_geom.cli", "write_trace_csv", "cli.write_trace_csv"),
)

# (module, class, method, span name)
_METHODS = (
    ("dsm_geom.geometry", "MetricField", "__call__", "geometry.MetricField"),
    ("dsm_geom.geometry", "ConnectionField", "__call__", "geometry.ConnectionField"),
    ("dsm_geom.core", "ModelDefinition", "fibre_sampler", "core.fibre_sampler"),
    ("dsm_geom.core", "ModelDefinition", "probe_pairs", "core.probe_pairs"),
)

# counted only: these are too cheap for a span to measure them fairly
_COUNTED_METHODS = (
    ("dsm_geom.core", "ChartSpec", "contains", "core.ChartSpec.contains"),
    ("dsm_geom.core", "ChartSpec", "require", "core.ChartSpec.require"),
)

_MODEL_CALLABLES = (
    ("divergence_fn", "models.divergence"),
    ("gradient_fn", "models.gradient"),
    ("hessian_fn", "models.hessian"),
    ("fibre_sampler_fn", "models.fibre_sampler"),
    ("probe_pairs_fn", "models.probe_pairs"),
)


class _ThreadState:
    __slots__ = ("calls", "events", "depth", "stack", "last_error", "base", "name", "t0", "t1", "parent")

    def __init__(self, index):
        self.calls = {}
        self.events = {}
        self.depth = {}
        self.stack = []
        self.last_error = {}
        self.base = index << 32
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")


def _arg(args, kwargs, index, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else default


class Tracer:
    """Counts (and optionally times) calls into dsm_geom from outside."""

    def __init__(self, spans: bool = True):
        self.spans = spans
        self.names = []
        self._name_ids = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._undo = []
        self._home = None

    # -- per-thread state -------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    def _adopt(self) -> int:
        home = self._home
        return home.stack[-1] if home is not None and home.stack else -1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @staticmethod
    def event(state: _ThreadState, key: str, amount=1):
        state.events[key] = state.events.get(key, 0) + amount

    def _failed(self, state, layer, err):
        # count an exception once per layer, where it first leaves that layer
        if state.last_error.get(layer) is err:
            return
        state.last_error[layer] = err
        if layer == "numdiff":
            self.event(state, "numdiff.failures")
        elif layer == "geometry":
            if type(err).__name__ == "Condition4Violated":
                self.event(state, "geometry.cond4_violations")
            else:
                self.event(state, "geometry.failures")

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name, pre=None, post=None, context=None):
        tracer = self
        layer = name.split(".", 1)[0]
        name_id = self._name_id(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = tracer._state()
            calls = state.calls
            calls[name] = calls.get(name, 0) + 1
            if pre is not None:
                pre(state, args, kwargs)
            depth = state.depth
            if context is not None:
                depth[context] = depth.get(context, 0) + 1
            record = tracer.spans
            if record:
                slot = len(state.t0)
                stack = state.stack
                state.parent.append(stack[-1] if stack else tracer._adopt())
                state.name.append(name_id)
                state.t1.append(0.0)
                stack.append(state.base | slot)
                state.t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                tracer._failed(state, layer, err)
                raise
            finally:
                if record:
                    state.t1[slot] = clock()
                    state.stack.pop()
                if context is not None:
                    depth[context] -= 1
            if post is not None:
                post(state, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _counter(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            calls = tracer._state().calls
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("dsm_geom"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    # -- hooks ------------------------------------------------------------

    def _hooks(self):
        event = self.event

        def wrap_instance(state, args, kwargs, model):
            for attr, name in _MODEL_CALLABLES:
                fn = getattr(model, attr)
                if fn is not None:
                    setattr(model, attr, self._wrap(fn, name))

        def fd_fallback(kind):
            def pre(state, args, kwargs):
                model = args[0]
                source = _arg(args, kwargs, 3, "source", "auto")
                if source == "fd" or getattr(model, kind) is None:
                    event(state, "core.fd_fallback")

            return pre

        def metric_gate(state, args, kwargs):
            if state.depth.get("connection_at"):
                event(state, "geometry.gate_calls")

        def field_eval(state, args, kwargs):
            field = args[0]
            kind = "oracle" if field.provenance == "analytic-oracle" else "fibre"
            event(state, "geometry.field_evals." + kind)
            if state.depth.get("path"):
                event(state, "structure.path_field_evals")
            if state.depth.get("transport"):
                event(state, "transport.field_evals")

        def classify_points(state, args, kwargs, report):
            event(state, "structure.classify_points", len(report.grid))

        def path_targets(state, args, kwargs):
            event(state, "structure.path_targets", len(_arg(args, kwargs, 2, "targets")))

        def trace_steps(state, args, kwargs, trace):
            event(state, "transport.steps", len(trace.times) - 1)
            if "domain_exit" in trace.flags:
                event(state, "transport.domain_exits")

        def fit_iterations(state, args, kwargs, result):
            event(state, "fit.iterations", result.iterations)

        return {
            "models.build": {"post": wrap_instance},
            "core.divergence_gradient": {"pre": fd_fallback("gradient_fn")},
            "core.divergence_hessian": {"pre": fd_fallback("hessian_fn")},
            "geometry.metric_at": {"pre": metric_gate},
            "geometry.connection_at": {"context": "connection_at"},
            "geometry.MetricField": {"pre": field_eval},
            "geometry.ConnectionField": {"pre": field_eval},
            "structure.classify": {"post": classify_points},
            "structure.affine_coordinates": {"pre": path_targets, "context": "path"},
            "structure.massieu": {"pre": path_targets, "context": "path"},
            "transport.geodesic": {"post": trace_steps, "context": "transport"},
            "transport.parallel_transport": {"post": trace_steps, "context": "transport"},
            "transport.covariant_constant_field": {"context": "transport"},
            "fit.fit": {"post": fit_iterations},
        }

    # -- install / uninstall ---------------------------------------------

    def install(self):
        """Wrap every target; dsm_geom.cli must already be imported."""
        import dsm_geom.cli  # noqa: F401  (loads every traced module)

        if self._undo:
            raise RuntimeError("tracer already installed")
        self._home = self._state()
        for _, name in _MODEL_CALLABLES:  # pool threads wrap models later
            self._name_id(name)
        hooks = self._hooks()
        for module_name, attr, name in _FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            self._rebind(original, self._wrap(original, name, **hooks.get(name, {})))
        for module_name, cls_name, method, name in _METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[method]
            self._set(cls, method, self._wrap(original, name, **hooks.get(name, {})))
        for module_name, cls_name, method, name in _COUNTED_METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._set(cls, method, self._counter(cls.__dict__[method], name))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def counts(self) -> dict:
        """Calls per span name plus derived events, summed over threads."""
        total = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for source in (state.calls, state.events):
                for key, value in source.items():
                    total[key] = total.get(key, 0) + value
        return total

    def _span_arrays(self):
        with self._lock:
            states = list(self._states)
        offsets = np.cumsum([0] + [len(state.t0) for state in states])
        names = np.concatenate([np.frombuffer(s.name, dtype=np.int32) for s in states] or [np.empty(0, np.int32)])
        t0 = np.concatenate([np.frombuffer(s.t0) for s in states] or [np.empty(0)])
        t1 = np.concatenate([np.frombuffer(s.t1) for s in states] or [np.empty(0)])
        raw = np.concatenate([np.frombuffer(s.parent, dtype=np.int64) for s in states] or [np.empty(0, np.int64)])
        thread = np.repeat(np.arange(len(states)), np.diff(offsets))
        parent = np.full(raw.shape, -1, dtype=np.int64)
        has_parent = raw >= 0
        parent[has_parent] = offsets[raw[has_parent] >> 32] + (raw[has_parent] & 0xFFFFFFFF)
        return names, t0, t1, parent, thread

    def summary(self) -> dict:
        """Counts, self time per layer and total time per span name.

        Self time is a span's duration minus the part of it that its child
        spans cover.  Children on the parent's own thread never overlap, so
        their durations add; children on pool threads may overlap each
        other, so their intervals are merged first.
        """
        names, t0, t1, parent, thread = self._span_arrays()
        duration = t1 - t0
        covered = np.zeros(duration.size)
        child = np.nonzero(parent >= 0)[0]
        same = child[thread[parent[child]] == thread[child]]
        np.add.at(covered, parent[same], duration[same])
        across = child[thread[parent[child]] != thread[child]]
        for owner in np.unique(parent[across]):
            members = across[parent[across] == owner]
            order = members[np.argsort(t0[members])]
            merged, end = 0.0, -np.inf
            for start, stop in zip(t0[order], t1[order]):
                start = max(start, end)
                if stop > start:
                    merged += stop - start
                    end = stop
            covered[owner] += merged
        self_time = duration - covered
        layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in self.names] or [0])
        self_by_layer = np.bincount(layer_of[names], weights=self_time, minlength=len(LAYERS)) if names.size else np.zeros(len(LAYERS))
        time_by_name = np.bincount(names, weights=duration, minlength=len(self.names)) if names.size else np.zeros(len(self.names))
        return {
            "counts": self.counts(),
            "self_s": {layer: float(value) for layer, value in zip(LAYERS, self_by_layer)},
            "time_s": {name: float(value) for name, value in zip(self.names, time_by_name)},
            "spans": int(names.size),
        }

    def save(self, path: str):
        """Write every recorded span to an .npz file."""
        names, t0, t1, parent, thread = self._span_arrays()
        np.savez(
            path,
            names=names,
            t0=t0,
            t1=t1,
            parent=parent,
            thread=thread,
            table=np.array(json.dumps(self.names)),
        )


def merge_summaries(summaries) -> dict:
    """Add up the summaries of several traced processes or passes."""
    total = {"counts": {}, "self_s": {}, "time_s": {}, "spans": 0}
    for summary in summaries:
        for key in ("counts", "self_s", "time_s"):
            for name, value in summary[key].items():
                total[key][name] = total[key].get(name, 0) + value
        total["spans"] += summary["spans"]
    return total


def model_evals(counts: dict) -> int:
    """Calls to the models' divergence, gradient and Hessian callables."""
    return sum(counts.get(f"models.{kind}", 0) for kind in ("divergence", "gradient", "hessian"))


def layer_metrics(summary: dict) -> dict:
    """Per-layer metric values (counts, shares, seconds) from one summary."""
    c = summary["counts"].get
    self_s = summary["self_s"].get
    time_s = summary["time_s"].get
    derivative_calls = c("core.divergence_gradient", 0) + c("core.divergence_hessian", 0)
    metric_calls = c("geometry.metric_at", 0)
    steps = c("transport.steps", 0)
    return {
        "models.divergence_calls": c("models.divergence", 0),
        "models.gradient_calls": c("models.gradient", 0),
        "models.hessian_calls": c("models.hessian", 0),
        "models.fibre_sampler_calls": c("models.fibre_sampler", 0),
        "models.probe_pairs_calls": c("models.probe_pairs", 0),
        "models.self_s": self_s("models", 0.0),
        "core.divergence_calls": c("core.evaluate_divergence", 0),
        "core.gradient_calls": c("core.divergence_gradient", 0),
        "core.hessian_calls": c("core.divergence_hessian", 0),
        "core.fd_fallback_share": c("core.fd_fallback", 0) / max(derivative_calls, 1),
        "core.chart_checks": c("core.ChartSpec.contains", 0) + c("core.ChartSpec.require", 0),
        "core.self_s": self_s("core", 0.0),
        "numdiff.gradient_calls": c("numdiff.fd_gradient", 0),
        "numdiff.hessian_calls": c("numdiff.fd_hessian", 0),
        "numdiff.field_derivative_calls": c("numdiff.fd_field_derivative", 0),
        "numdiff.jacobian_calls": c("numdiff.fd_jacobian", 0),
        "numdiff.failures": c("numdiff.failures", 0),
        "numdiff.self_s": self_s("numdiff", 0.0),
        "geometry.metric_calls": metric_calls,
        "geometry.gate_calls": c("geometry.gate_calls", 0),
        "geometry.gate_share": c("geometry.gate_calls", 0) / max(metric_calls, 1),
        "geometry.connection_calls": c("geometry.connection_at", 0),
        "geometry.curvature_calls": c("geometry.curvature_at", 0),
        "geometry.codazzi_calls": c("geometry.codazzi_residual", 0),
        "geometry.field_evals.fibre": c("geometry.field_evals.fibre", 0),
        "geometry.field_evals.oracle": c("geometry.field_evals.oracle", 0),
        "geometry.cond4_violations": c("geometry.cond4_violations", 0),
        "geometry.failures": c("geometry.failures", 0),
        "geometry.self_s": self_s("geometry", 0.0),
        "structure.classify_points": c("structure.classify_points", 0),
        "structure.path_targets": c("structure.path_targets", 0),
        "structure.path_field_evals": c("structure.path_field_evals", 0),
        "structure.self_s": self_s("structure", 0.0),
        "transport.steps": steps,
        "transport.field_evals": c("transport.field_evals", 0),
        "transport.field_evals_per_step": c("transport.field_evals", 0) / max(steps, 1),
        "transport.domain_exits": c("transport.domain_exits", 0),
        "transport.self_s": self_s("transport", 0.0),
        "fit.calls": c("fit.fit", 0),
        "fit.iterations": c("fit.iterations", 0),
        "fit.self_s": self_s("fit", 0.0),
        "cli.jobs": c("cli.main", 0),
        "cli.write_s": time_s("cli.write_json", 0.0) + time_s("cli.write_trace_csv", 0.0),
        "cli.report_all_s": time_s("cli.report_all", 0.0),
        "cli.self_s": self_s("cli", 0.0),
    }
