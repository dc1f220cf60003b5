"""Divergence-induced geometry: metric, connection, curvature, duality.

The metric averages divergence Hessians over fibre members and reports
how constant they are (the condition-4 diagnostic).  The connection is
solved from off-fibre probes: a probe family's flat list of n plus and
then n minus probes gives the centered curve derivative of the Hessian,
which coincides with the discrete probe formula whenever the model has a
Hessian structure and stays second-order accurate when it does not (the
sphere).  The canonical-chart metric of ``metric_transform_check`` is
taken directly, as FD Hessians of the divergence in affine coordinates.
A field carries the open box it is defined on, and a connection field the
``Tolerances`` it was built with, so the functions that take a field take
no model and no second tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import zip_longest
from typing import Callable, Optional

import numpy as np

from . import numdiff
from .core import ModelDefinition, Tolerances, as_coords, passes
from .core import _gradient_rows, _hessian_rows, _stacked_hessians, require_point
from .errors import (
    Condition4Violated,
    MetricNotPD,
    ProbeSingular,
    Unsupported,
)

PROBE_CONDITION_LIMIT = 1e8


@dataclass(frozen=True)
class MetricEvaluation:
    matrix: np.ndarray
    fibre_deviation: float
    member_labels: tuple


@dataclass(frozen=True)
class ConnectionEvaluation:
    families: tuple  # the connection solved from each probe family, family 0 first
    omega: np.ndarray  # the families' mean
    probe_consistency: float  # the families' relative gap; NaN for one family
    metric: MetricEvaluation  # the condition-4 gate's evaluation at the same point


@dataclass(frozen=True)
class CurvatureTensor:
    """Components Omega[l, k, i, j]; antisymmetric in (i, j)."""

    components: np.ndarray
    max_abs: float


@dataclass(frozen=True)
class MetricField:
    evaluate: Callable
    provenance: str
    domain: tuple  # the open box the field is defined on; FD stencils stay inside it
    # points -> their values in order from one evaluation of all of them, each
    # point's error raised at its read; None for a field evaluated point by point
    stack: Optional[Callable] = None

    def __call__(self, theta):
        return self.evaluate(as_coords(theta))


@dataclass(frozen=True)
class ConnectionField:
    evaluate: Callable
    provenance: str
    domain: tuple
    tol: Tolerances  # what the field was built with; paths solve to within tol.flat
    stack: Optional[Callable] = None  # as MetricField.stack

    def __call__(self, theta):
        return self.evaluate(as_coords(theta))


def _relative_gap(candidate, reference, floor=1.0):
    scale = max(float(np.max(np.abs(reference))), floor)
    return float(np.max(np.abs(candidate - reference))) / scale


class _FibreGate:
    """One chart point's ``_gate_terms``, alone or its entry of a stack's (or
    the exception evaluating the point raised), read through the
    condition-4 gate."""

    __slots__ = ("model", "coords", "members", "terms")

    def __init__(self, model, coords, members, terms):
        self.model, self.coords, self.members, self.terms = model, coords, members, terms

    def metric_at(self, tol: Tolerances) -> MetricEvaluation:
        if isinstance(self.terms, Exception):
            raise self.terms
        hessians, mean, largest, spread, factorable = self.terms
        name, coords = self.model.name, self.coords
        if not math.isfinite(largest):  # cholesky accepts a NaN matrix
            raise MetricNotPD(f"divergence Hessian of {name} is not finite at {coords.tolist()}")
        deviation = spread / max(largest, 1e-12)
        labels = tuple(x.label for x in self.members)
        if not passes(deviation, tol.cond4):
            raise Condition4Violated(
                f"divergence Hessian of {name} varies by {deviation:.3g} "
                f"(relative) across fibre members at {coords.tolist()}",
                point=coords,
                deviation=deviation,
                member_hessians=list(hessians),
                member_labels=labels,
            )
        if not factorable:
            raise MetricNotPD(f"metric of {name} at {coords.tolist()} is not positive definite")
        return MetricEvaluation(matrix=mean, fibre_deviation=deviation, member_labels=labels)


def _connection(model: ModelDefinition, coords, terms) -> np.ndarray:
    """The connection of one point's ``_solve_terms`` (or the exception
    evaluating them raised), unless its probe matrix is singular."""
    if isinstance(terms, Exception):
        raise terms
    omega, condition = terms
    if not condition <= PROBE_CONDITION_LIMIT:  # NaN fails too
        raise ProbeSingular(
            f"off-fibre probe matrix of {model.name} is singular "
            f"(condition {condition:.3g}) at {coords.tolist()}"
        )
    return omega


def _member_rows(model: ModelDefinition, theta):
    """The chart check, the fibre sampler and the member Hessian rows at theta."""
    coords = model.chart.require(theta)
    members = model._fibre_sampler(coords)
    return coords, members, _hessian_rows(model, members, coords)


def _probe_rows(model: ModelDefinition, coords, family):
    """One probe family's gradient and Hessian rows at checked coords."""
    # data[:n] are the plus probes, data[n:] their minus probes
    data = model._probe_pairs(coords, family)
    n = coords.size
    if len(data) != 2 * n:
        raise ProbeSingular(
            f"{model.name} supplied {len(data)} probe data sets for dimension {n}, not {2 * n}"
        )
    return _gradient_rows(model, data, coords), _hessian_rows(model, data, coords)


def _fibre_stack(model: ModelDefinition, points, family=None) -> tuple:
    """The fibre fields at chart points as one stack: each point's
    ``_FibreGate`` and, with a probe ``family``, its ``_solve_terms``.

    Each point makes a one-point evaluation's model calls in its order,
    one point after another (gce and vmf-sphere keep per-point terms in
    one-entry caches), up to the first point whose calls raise; that point
    raises it when read.  The numpy work then runs once for the stack, so
    reading the points in order raises what evaluating them one at a time
    raises.
    """
    coords, samples, member_rows, probe_rows = [], [], [], []
    gate_error = solve_error = None
    for theta in points:
        try:
            point, members, rows = _member_rows(model, theta)
        except Exception as err:  # raised when the point's gate is read
            gate_error = err
            break
        coords.append(point)
        samples.append(members)
        member_rows.append((rows,))
        if family is not None:
            try:
                probe_rows.append(_probe_rows(model, point, family))
            except Exception as err:  # raised when the point's connection is read
                solve_error = err
                break
    gates = _each_point(_gate_terms, model, member_rows, gate_error)
    return (
        [_FibreGate(model, *point) for point in zip_longest(coords, samples, gates)],
        _each_point(_solve_terms, model, probe_rows, solve_error),
    )


def _each_point(terms, model, rows, error=None) -> list:
    """Each point's ``terms(model, *row)``, then ``error`` if a point's model
    calls raised: one stacked call for two or more points, or one call per
    point, whose error is then its terms, for one point or a stack that
    raises (an overflow, fibres of different sizes)."""
    each = []
    if len(rows) > 1:
        try:
            each = list(zip(*terms(model, *zip(*rows))))
        except Exception:
            pass  # point by point below
    if not each:
        for row in rows:
            try:
                each.append(terms(model, *row))
            except Exception as err:
                each.append(err)
    if error is not None:
        each.append(error)
    return each


def _gate_terms(model, rows) -> tuple:
    """Member Hessians (..., k, n, n), fibre mean, largest mean entry, member
    spread and Cholesky flag from one point's k member Hessian rows, or each
    of them stacked from a list of several points' rows.  A stack with a
    mean that is not finite or has no Cholesky factor raises, so that each
    point is taken alone."""
    hessians = _stacked_hessians(model, rows)
    stacked = hessians.ndim > 3
    entries = (-2, -1) if stacked else None  # each point's entries, or all of one point's
    # np.mean(axis=0) of each point's members bit for bit, without its overhead
    means = hessians.sum(axis=-3) / hessians.shape[-3]
    largest = np.abs(means).max(entries).tolist()  # NaN or inf where any entry is not finite
    if not (all(map(math.isfinite, largest)) if stacked else math.isfinite(largest)):
        if stacked:
            raise ArithmeticError("a fibre mean is not finite")
        return hessians, means, largest, math.nan, False  # refused before its spread is read
    # the largest pairwise gap |h_i - h_j|: per entry it is max - min (that
    # pair is one of the pairs, and rounding keeps the order)
    spread = (hessians.max(-3) - hessians.min(-3)).max(entries).tolist()
    try:
        np.linalg.cholesky(means)
    except np.linalg.LinAlgError:
        if stacked:
            raise
        return hessians, means, largest, spread, False
    return hessians, means, largest, spread, [True] * len(largest) if stacked else True


def _solve_terms(model, grads, hessians) -> tuple:
    """Connection (..., n, n, n) and probe-matrix condition from one point's
    2n probe gradient and Hessian rows, or each of them stacked from lists
    of several points' rows.  A stack with an exactly singular probe matrix
    raises, so that each point is taken alone."""
    grads = np.array(grads, dtype=float)
    hessians = _stacked_hessians(model, hessians)
    lead, n = grads.shape[:-2], grads.shape[-2] // 2
    probe_matrices = 0.5 * (grads[..., :n, :] - grads[..., n:, :])
    rhs = 0.5 * (hessians[..., :n, :, :] - hessians[..., n:, :, :]).reshape(lead + (n, n * n))
    identity = np.broadcast_to(np.eye(n), lead + (n, n)) if lead else np.eye(n)
    # one LU solve gives omega and the inverse, and |P|_F |P^-1|_F bounds the
    # 2-norm condition from above (Higham, Accuracy and Stability, ch. 15)
    try:
        solved = np.linalg.solve(probe_matrices, np.concatenate((rhs, identity), axis=-1))
    except np.linalg.LinAlgError:  # an exactly singular pivot
        if lead:
            raise
        return None, math.inf
    matrices = probe_matrices.reshape(lead + (-1,)).tolist()
    inverses = solved[..., n * n :].reshape(lead + (-1,)).tolist()
    if lead:
        condition = [math.hypot(*p) * math.hypot(*q) for p, q in zip(matrices, inverses)]
    else:
        condition = math.hypot(*matrices) * math.hypot(*inverses)
    return solved[..., : n * n].reshape(lead + (n, n, n)), condition


def metric_at(
    model: ModelDefinition,
    theta,
    tol: Tolerances = Tolerances(),
) -> MetricEvaluation:
    """Fibre-averaged divergence Hessian with the condition-4 diagnostic."""
    coords, members, rows = _member_rows(model, theta)
    return _FibreGate(model, coords, members, _gate_terms(model, rows)).metric_at(tol=tol)


def _family_at(model: ModelDefinition, coords, family) -> np.ndarray:
    """One probe family's connection at checked coords."""
    return _connection(model, coords, _solve_terms(model, *_probe_rows(model, coords, family)))


def connection_at(
    model: ModelDefinition,
    theta,
    check_consistency: bool = True,
    tol: Tolerances = Tolerances(),
) -> ConnectionEvaluation:
    """Connection coefficients omega[k, i, j] from off-fibre probes.

    Requires metric_at to succeed (condition 4) and returns its evaluation.
    Solves two independent probe families, which agree for any model with a
    Hessian structure, and returns their gap for the caller to judge; with
    ``check_consistency=False`` it solves family 0 alone.
    """
    coords = as_coords(theta)
    metric = metric_at(model, coords, tol=tol)  # condition-4 gate; checks the chart
    first = _family_at(model, coords, 0)
    if not check_consistency:
        return ConnectionEvaluation((first,), first, float("nan"), metric)
    other = _family_at(model, coords, 1)
    return ConnectionEvaluation(
        (first, other), 0.5 * (first + other), _relative_gap(other, first), metric
    )


def metric_field(model: ModelDefinition, tol: Tolerances = Tolerances()) -> MetricField:
    def stack(points):
        return (gate.metric_at(tol=tol).matrix for gate in _fibre_stack(model, points)[0])

    return MetricField(
        evaluate=lambda coords: metric_at(model, coords, tol=tol).matrix,
        provenance="fibre-evaluated",
        domain=model.chart.domain,
        stack=stack,
    )


def connection_field(
    model: ModelDefinition,
    source: str = "fibre",
    tol: Tolerances = Tolerances(),
) -> ConnectionField:
    if source == "oracle":
        if model.oracle is None or model.oracle.connection is None:
            raise Unsupported(f"model {model.name} has no connection oracle")
        domain = model.oracle.connection_domain or model.chart.domain
        return ConnectionField(model.oracle.connection, "analytic-oracle", domain, tol)

    def stack(points):
        gates, solves = _fibre_stack(model, points, family=0)
        for gate, terms in zip_longest(gates, solves):
            gate.metric_at(tol=tol)  # the condition-4 gate
            yield _connection(model, gate.coords, terms)

    return ConnectionField(
        evaluate=lambda coords: connection_at(
            model, coords, check_consistency=False, tol=tol
        ).omega,
        provenance="fibre-evaluated",
        domain=model.chart.domain,
        tol=tol,
        stack=stack,
    )


def dual_connection_at(metric: MetricField, connection: ConnectionField, theta) -> np.ndarray:
    """Coefficients of the connection dual with respect to the metric."""
    coords = require_point(theta, metric.domain, "point", "metric field")
    g = metric(coords)
    ginv = np.linalg.inv(g)
    omega = connection(coords)
    dg = numdiff.fd_jacobian(metric, coords, metric.domain)
    # rhs[a, b, c] = d_a g_bc - omega^d_ab g_dc; dual[k, a, c] = g^kb rhs[a, b, c]
    # einsum, not tensordot: tensordot sums omega^d_ab g_dc in another order,
    # which moves the last bit of some components
    rhs = dg.transpose(2, 0, 1) - np.einsum("dab,dc->abc", omega, g)
    return np.tensordot(ginv, rhs, axes=(1, 1))


def curvature_at(connection: ConnectionField, theta) -> CurvatureTensor:
    """Curvature components from field derivatives of the connection."""
    coords = require_point(theta, connection.domain, "point", "field")
    omega = connection(coords)
    # domega[l, j, k, i] = d_i w^l_jk
    domega = numdiff.fd_jacobian(connection, coords, connection.domain)
    # components[l, k, i, j] = d_i w^l_jk - d_j w^l_ik + w^l_is w^s_jk - w^l_js w^s_ik,
    # summed in that order; product[l, i, j, k] = w^l_is w^s_jk
    product = np.tensordot(omega, omega, axes=(2, 0))
    components = domega.transpose(0, 2, 3, 1) - domega.transpose(0, 2, 1, 3)
    components += product.transpose(0, 3, 1, 2)
    components -= product.transpose(0, 3, 2, 1)
    return CurvatureTensor(components=components, max_abs=float(np.max(np.abs(components))))


def codazzi_residual(metric: MetricField, connection: ConnectionField, theta):
    """Residual of the Codazzi-Peterson compatibility equation."""
    coords = require_point(theta, metric.domain, "point", "metric field")
    g = metric(coords)
    omega = connection(coords)
    dg = numdiff.fd_jacobian(metric, coords, metric.domain)
    # residual[a, b, c] = (d_a g_bc - d_b g_ac) + (g_as w^s_bc - g_bs w^s_ac)
    lowered = np.tensordot(g, omega, axes=(1, 0))  # lowered[a, b, c] = g_as w^s_bc
    residual = (dg.transpose(2, 0, 1) - dg.transpose(0, 2, 1)) + (
        lowered - lowered.transpose(1, 0, 2)
    )
    return residual, float(np.max(np.abs(residual)))


def torsion_residual(omega: np.ndarray) -> float:
    """Max-abs antisymmetric part in the lower indices."""
    return float(np.max(np.abs(omega - np.transpose(omega, (0, 2, 1)))))


def metric_transform_check(model: ModelDefinition, theta, tol: Tolerances = Tolerances()) -> float:
    """Tensor-transformation residual of the metric under the change to the
    model's affine coordinates w: the fibre mean of the FD Hessians of
    w -> D(x || m(affine_inverse(w))) at w = affine_map(theta), pulled back
    through an FD Jacobian, against the divergence-only metric at theta
    (the condition-4 gate).  Both sides are FD Hessians, so the residual
    measures the transformation property alone.
    """
    oracle = model.oracle
    if oracle is None or oracle.affine_map is None:
        raise Unsupported(f"model {model.name} declares no affine coordinates")
    coords = model.chart.require(theta)
    forward, inverse = oracle.affine_map, oracle.affine_inverse
    divergence_only = replace(model, gradient_fn=None, hessian_fn=None)
    g_source = metric_at(divergence_only, coords, tol=tol).matrix
    jac = numdiff.fd_jacobian(forward, coords, model.chart.domain)

    def hessian(x):  # each mapped point is checked against the model's chart
        return numdiff.fd_hessian(
            lambda w: model.divergence_fn(x, model.chart.require(inverse(w))), forward(coords)
        )

    g_target = np.mean([hessian(x) for x in model.fibre_sampler(coords)], axis=0)
    transformed = jac.T @ g_target @ jac
    return _relative_gap(transformed, g_source, floor=1e-12)


@dataclass(frozen=True)
class CramerRaoReport:
    worst_margin: float
    worst_affine_margin: Optional[float]


def cramer_rao_check(
    model: ModelDefinition, theta, tol: Tolerances = Tolerances()
) -> CramerRaoReport:
    """Cauchy-Schwarz margins of the metric, as its smallest eigenvalue.

    (v.g.v)(w.g.w) >= (v.g.w)^2 holds for every vector pair exactly when g
    is positive semi-definite, so the margin is g's smallest eigenvalue
    (metric_at has already refused a metric that is not PD).  When the
    catalogue carries affine coordinates and a Massieu closed form, the
    sensitivity-bound version (the Cramer-Rao analogue)
    v.H.v >= (v.H.w)^2 / w.H.w is checked the same way through the
    potential's Hessian H in affine coordinates.
    """
    coords = model.chart.require(theta)
    worst = float(np.linalg.eigvalsh(metric_at(model, coords, tol=tol).matrix)[0])
    worst_affine = None
    oracle = model.oracle
    if oracle is not None and oracle.affine_map is not None and oracle.massieu_affine is not None:
        canonical = oracle.affine_map(coords)
        hess = numdiff.fd_hessian(oracle.massieu_affine, canonical)
        worst_affine = float(np.linalg.eigvalsh(hess)[0])
    return CramerRaoReport(worst_margin=worst, worst_affine_margin=worst_affine)
