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
from functools import partial
from itertools import islice
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
    # (points, sizes=None) -> their values in order from one evaluation of all
    # of them, each point's error raised at its read: one iterator, or one for
    # each segment of sizes, an error ending only its own segment; None for a
    # field evaluated point by point
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


def _fibre_stack(model: ModelDefinition, points, families=(), sizes=None) -> tuple:
    """The fibre fields at chart points as one stack: each point's
    ``_FibreGate`` and the ``_solve_terms`` of each of its probe families.

    ``families`` is the tuple of probe families every point solves, in
    ``connection_at``'s order, or a list of one such tuple per point.
    ``sizes`` cuts the points into consecutive segments (by default one).
    Each point makes a one-point evaluation's model calls in its order, one
    point after another (gce and vmf-sphere keep per-point terms in
    one-entry caches), up to the first call that raises in its segment.
    That point keeps the error in place of its gate or of that family's
    terms, and the rest of its segment is not evaluated (None gates, no
    terms); the next segment goes on.  The numpy work then runs once for
    the stack, so reading a segment's points in order raises what
    evaluating them one at a time raises.
    """
    if not isinstance(families, list):
        families = [families] * len(points)
    member_rows, probe_rows, evaluated = [], [], []
    for segment in numdiff._segments(range(len(points)), sizes or [len(points)]):
        for index in segment:
            try:
                coords, members, rows = _member_rows(model, points[index])
            except Exception as err:  # raised when the point's gate is read
                evaluated.append((index, None, None, 0, err))
                break
            member_rows.append((rows,))
            count, error = len(probe_rows), None
            for family in families[index]:
                try:
                    probe_rows.append(_probe_rows(model, coords, family))
                except Exception as err:  # raised when this family's connection is read
                    error = err
                    break
            evaluated.append((index, coords, members, len(probe_rows) - count, error))
            if error is not None:
                break
    gates, solves = [None] * len(points), [()] * len(points)
    gate_terms = iter(_each_point(partial(_gate_terms, model), member_rows))
    solve_terms = iter(_each_point(partial(_solve_terms, model), probe_rows))
    for index, coords, members, count, error in evaluated:
        if coords is None:
            gates[index] = _FibreGate(model, None, None, error)
            continue
        gates[index] = _FibreGate(model, coords, members, next(gate_terms))
        solves[index] = tuple(islice(solve_terms, count)) + (() if error is None else (error,))
    return gates, solves


def _each_point(terms, rows) -> list:
    """Each point's ``terms(*row)``: one stacked call for two or more points,
    or one call per point, whose error is then its terms, for one point or a
    stack that raises (an overflow, fibres of different sizes)."""
    if len(rows) > 1:
        try:
            return list(zip(*terms(*zip(*rows))))
        except Exception:
            pass  # point by point below
    each = []
    for row in rows:
        try:
            each.append(terms(*row))
        except Exception as err:
            each.append(err)
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


@dataclass(frozen=True)
class _FibreStack:
    """A fibre field's ``stack``: each point's metric (no probe family) or
    family-0 connection (families (0,)) of one model under one tolerance,
    from one ``_fibre_stack``; ``families`` is as that takes it."""

    model: ModelDefinition
    tol: Tolerances
    families: tuple

    def __call__(self, points, sizes=None):
        gates, solves = _fibre_stack(self.model, points, self.families, sizes)

        def read(segment):
            for index in segment:
                metric = gates[index].metric_at(tol=self.tol)  # the condition-4 gate
                terms, coords = solves[index], gates[index].coords
                yield _connection(self.model, coords, terms[0]) if terms else metric.matrix

        if sizes is None:
            return read(range(len(points)))
        return [read(segment) for segment in numdiff._segments(range(len(points)), sizes)]


def metric_field(model: ModelDefinition, tol: Tolerances = Tolerances()) -> MetricField:
    return MetricField(
        evaluate=lambda coords: metric_at(model, coords, tol=tol).matrix,
        provenance="fibre-evaluated",
        domain=model.chart.domain,
        stack=_FibreStack(model, tol, ()),
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
    return ConnectionField(
        evaluate=lambda coords: connection_at(
            model, coords, check_consistency=False, tol=tol
        ).omega,
        provenance="fibre-evaluated",
        domain=model.chart.domain,
        tol=tol,
        stack=_FibreStack(model, tol, (0,)),
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


def _each_centre(terms, results) -> list:
    """``results`` with each centre's values (a tuple) replaced by ``terms``
    of them, stacked over the centres as ``_each_point`` stacks them."""
    done = [values for values in results if not isinstance(values, Exception)]
    made = iter(_each_point(terms, done))
    return [values if isinstance(values, Exception) else next(made) for values in results]


def _one_centre(results):
    """The one result of a many-centre form, raised if it is an exception."""
    (result,) = results
    if isinstance(result, Exception):
        raise result
    return result


def _curvature_terms(omega, domega) -> tuple:
    """Curvature components and their max-abs from one point's connection
    (n, n, n) and its Jacobian domega[l, j, k, i] = d_i w^l_jk, or from each
    of several points' stacked."""
    omega, domega = np.asarray(omega), np.asarray(domega)
    lead, n = omega.shape[:-3], omega.shape[-1]
    # components[l, k, i, j] = d_i w^l_jk - d_j w^l_ik + w^l_is w^s_jk - w^l_js w^s_ik,
    # summed in that order; product[l, i, j, k] = w^l_is w^s_jk, summed as
    # tensordot sums it
    product = np.matmul(omega.reshape(lead + (n * n, n)), omega.reshape(lead + (n, n * n)))
    product = product.reshape(lead + (n,) * 4)
    components = np.moveaxis(domega, -3, -1) - np.swapaxes(domega, -3, -2)
    components += np.moveaxis(product, -1, -3)
    components -= np.swapaxes(product, -3, -1)
    return components, np.abs(components).max(axis=(-4, -3, -2, -1)).tolist()


def _curvatures(connection: ConnectionField, centres) -> list:
    """``curvature_at`` at each of the centres, which are checked points of
    the field's domain, or the exception evaluating it raised: each
    centre's connection and stencil are one segment of one stack."""
    stack = partial(numdiff._field_values, connection)
    results = numdiff.fd_jacobians(stack, centres, connection.domain, head=1)
    return [
        terms if isinstance(terms, Exception) else CurvatureTensor(*terms)
        for terms in _each_centre(_curvature_terms, results)
    ]


def curvature_at(connection: ConnectionField, theta) -> CurvatureTensor:
    """Curvature components from field derivatives of the connection."""
    coords = require_point(theta, connection.domain, "point", "field")
    return _one_centre(_curvatures(connection, [coords]))


def _codazzi_terms(g, omega, dg) -> tuple:
    """Codazzi residual and its max-abs from one point's metric (n, n),
    connection (n, n, n) and metric Jacobian dg[b, c, a] = d_a g_bc, or from
    each of several points' stacked."""
    g, omega, dg = np.asarray(g), np.asarray(omega), np.asarray(dg)
    lead, n = g.shape[:-2], g.shape[-1]
    # residual[a, b, c] = (d_a g_bc - d_b g_ac) + (g_as w^s_bc - g_bs w^s_ac);
    # lowered[a, b, c] = g_as w^s_bc, summed as tensordot sums it
    lowered = np.matmul(g, omega.reshape(lead + (n, n * n))).reshape(lead + (n, n, n))
    residual = (np.moveaxis(dg, -1, -3) - np.swapaxes(dg, -2, -1)) + (
        lowered - np.swapaxes(lowered, -3, -2)
    )
    return residual, np.abs(residual).max(axis=(-3, -2, -1)).tolist()


def _codazzi_residuals(metric: MetricField, connection: ConnectionField, centres) -> list:
    """``codazzi_residual`` at each of the centres, which are checked points
    of the metric's domain, or the exception evaluating it raised: each
    centre's metric, connection and metric stencil are one segment of one
    stack, a fibre stack for the fibre fields of one model."""
    first, other = metric.stack, connection.stack
    fibre = isinstance(first, _FibreStack) and isinstance(other, _FibreStack)
    fibre = fibre and first.model is other.model and first.tol == other.tol

    def stack(points, sizes):
        # each segment: the metric at its centre, the connection there, then the stencil
        fields = [f for size in sizes for f in (metric, connection, *[metric] * (size - 2))]
        if fibre:
            families = [field.stack.families for field in fields]
            return replace(first, families=families)(points, sizes)
        return [
            (np.asarray(field(point), dtype=float) for field, point in segment)
            for segment in numdiff._segments(list(zip(fields, points)), sizes)
        ]

    results = numdiff.fd_jacobians(stack, centres, metric.domain, head=2)
    return _each_centre(_codazzi_terms, results)


def codazzi_residual(metric: MetricField, connection: ConnectionField, theta):
    """Residual of the Codazzi-Peterson compatibility equation."""
    coords = require_point(theta, metric.domain, "point", "metric field")
    return _one_centre(_codazzi_residuals(metric, connection, [coords]))


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
