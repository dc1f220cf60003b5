"""Divergence-induced geometry: metric, connection, curvature, duality.

The metric averages divergence Hessians over fibre members and reports
how constant they are (the condition-4 diagnostic).  The connection is
solved from off-fibre probes: antithetic probe pairs give the centered
curve derivative of the Hessian, which coincides with the discrete
probe formula whenever the model has a Hessian structure and stays
second-order accurate when it does not (the sphere).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import numdiff
from .core import ChartSpec, ModelDefinition, Tolerances, as_coords, in_open_box
from .core import _divergence_gradient, _divergence_hessian
from .errors import (
    Condition4Violated,
    HessianStructureViolated,
    MetricNotPD,
    ProbeSingular,
    Unsupported,
)

FIBRE_K_DEFAULT = 3
PROBE_DELTA = 1e-3
PROBE_CONDITION_LIMIT = 1e8


@dataclass(frozen=True)
class MetricEvaluation:
    matrix: np.ndarray
    fibre_deviation: float
    member_labels: tuple


@dataclass(frozen=True)
class ConnectionEvaluation:
    omega: np.ndarray
    probe_consistency: float
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
    domain: tuple

    def __call__(self, theta):
        return self.evaluate(as_coords(theta))


@dataclass(frozen=True)
class ConnectionField:
    evaluate: Callable
    provenance: str
    domain: tuple

    def __call__(self, theta):
        return self.evaluate(as_coords(theta))

    def contains(self, coords) -> bool:
        return in_open_box(as_coords(coords), self.domain)


def _relative_gap(candidate, reference, floor=1.0):
    scale = max(float(np.max(np.abs(reference))), floor)
    return float(np.max(np.abs(candidate - reference))) / scale


def metric_at(
    model: ModelDefinition,
    theta,
    fibre_k: int = FIBRE_K_DEFAULT,
    tol: Tolerances = Tolerances(),
) -> MetricEvaluation:
    """Fibre-averaged divergence Hessian with the condition-4 diagnostic."""
    coords = model.chart.require(theta)
    k = min(fibre_k, model.fibre_capacity)
    members = model._fibre_sampler(coords, k)
    hessians = [_divergence_hessian(model, x, coords) for x in members]
    mean = sum(hessians) / len(hessians)  # np.mean(axis=0) bit for bit, without its overhead
    if not np.isfinite(mean).all():  # a NaN passes every comparison below
        raise MetricNotPD(
            f"divergence Hessian of {model.name} is not finite at {coords.tolist()}"
        )
    scale = max(float(np.max(np.abs(mean))), 1e-12)
    deviation = 0.0
    for i in range(len(hessians)):
        for j in range(i + 1, len(hessians)):
            gap = float(np.max(np.abs(hessians[i] - hessians[j]))) / scale
            deviation = max(deviation, gap)
    labels = tuple(x.label for x in members)
    if deviation > tol.cond4:
        raise Condition4Violated(
            f"divergence Hessian of {model.name} varies by {deviation:.3g} "
            f"(relative) across fibre members at {coords.tolist()}",
            deviation=deviation,
            member_hessians=hessians,
            member_labels=labels,
        )
    try:
        np.linalg.cholesky(mean)
    except np.linalg.LinAlgError:
        raise MetricNotPD(
            f"metric of {model.name} at {coords.tolist()} is not positive definite"
        )
    return MetricEvaluation(matrix=mean, fibre_deviation=deviation, member_labels=labels)


def _solve_family(model, coords, family):
    pairs = model._probe_pairs(coords, PROBE_DELTA, family)
    n = coords.size
    if len(pairs) < n:
        raise ProbeSingular(
            f"{model.name} supplied {len(pairs)} probe pairs for dimension {n}"
        )
    probe_matrix = np.empty((len(pairs), n))
    rhs = np.empty((len(pairs), n, n))
    for c, pair in enumerate(pairs):
        grad_plus = _divergence_gradient(model, pair.plus, coords)
        grad_minus = _divergence_gradient(model, pair.minus, coords)
        hess_plus = _divergence_hessian(model, pair.plus, coords)
        hess_minus = _divergence_hessian(model, pair.minus, coords)
        probe_matrix[c] = 0.5 * (grad_plus - grad_minus)
        rhs[c] = 0.5 * (hess_plus - hess_minus)
    singular_values = np.linalg.svd(probe_matrix, compute_uv=False)
    condition = (
        singular_values[0] / singular_values[-1] if singular_values[-1] > 0 else np.inf
    )
    if not np.isfinite(condition) or condition > PROBE_CONDITION_LIMIT:
        raise ProbeSingular(
            f"off-fibre probe matrix of {model.name} is singular "
            f"(condition {condition:.3g}) at {coords.tolist()}"
        )
    if len(pairs) == n:
        flat = np.linalg.solve(probe_matrix, rhs.reshape(n, n * n))
    else:  # overdetermined probe family: least squares
        flat, *_ = np.linalg.lstsq(
            probe_matrix, rhs.reshape(len(pairs), n * n), rcond=None
        )
    return flat.reshape(n, n, n)


def connection_at(
    model: ModelDefinition,
    theta,
    check_consistency: bool = True,
    fibre_k: int = FIBRE_K_DEFAULT,
    tol: Tolerances = Tolerances(),
) -> ConnectionEvaluation:
    """Connection coefficients omega[k, i, j] from off-fibre probes.

    Requires metric_at to succeed (condition 4) and returns its evaluation;
    compares two independent probe families, which must agree for any
    model with a Hessian structure.
    """
    coords = model.chart.require(theta)
    metric = metric_at(model, coords, fibre_k=fibre_k, tol=tol)  # condition-4 gate
    omega = _solve_family(model, coords, 0)
    if not check_consistency:
        return ConnectionEvaluation(omega=omega, probe_consistency=float("nan"), metric=metric)
    other = _solve_family(model, coords, 1)
    gap = _relative_gap(other, omega)
    if gap > tol.hessian:
        raise HessianStructureViolated(
            f"probe families disagree on the connection of {model.name} at "
            f"{coords.tolist()} (relative {gap:.3g})",
            deviation=gap,
            family_estimates=(omega, other),
        )
    return ConnectionEvaluation(omega=0.5 * (omega + other), probe_consistency=gap, metric=metric)


def metric_field(
    model: ModelDefinition,
    fibre_k: int = FIBRE_K_DEFAULT,
    tol: Tolerances = Tolerances(),
) -> MetricField:
    return MetricField(
        evaluate=lambda coords: metric_at(model, coords, fibre_k=fibre_k, tol=tol).matrix,
        provenance="fibre-evaluated",
        domain=model.chart.domain,
    )


def connection_field(
    model: ModelDefinition,
    source: str = "fibre",
    fibre_k: int = FIBRE_K_DEFAULT,
    tol: Tolerances = Tolerances(),
) -> ConnectionField:
    if source == "oracle":
        if model.oracle is None or model.oracle.connection is None:
            raise Unsupported(f"model {model.name} has no connection oracle")
        domain = model.oracle.connection_domain or model.chart.domain
        return ConnectionField(
            evaluate=model.oracle.connection,
            provenance="analytic-oracle",
            domain=domain,
        )
    return ConnectionField(
        evaluate=lambda coords: connection_at(
            model, coords, check_consistency=False, fibre_k=fibre_k, tol=tol
        ).omega,
        provenance="fibre-evaluated",
        domain=model.chart.domain,
    )


def dual_connection_at(
    model: ModelDefinition,
    theta,
    metric: Optional[MetricField] = None,
    connection: Optional[ConnectionField] = None,
) -> np.ndarray:
    """Coefficients of the connection dual with respect to the metric."""
    coords = model.chart.require(theta)
    metric = metric or metric_field(model)
    connection = connection or connection_field(model)
    g = metric(coords)
    ginv = np.linalg.inv(g)
    omega = connection(coords)
    dg = numdiff.fd_jacobian(metric, coords, model.chart.domain)
    n = coords.size
    dual = np.empty((n, n, n))
    for a in range(n):
        # rhs[b, c] = d_a g_bc - omega^d_ab g_dc
        rhs = dg[:, :, a] - np.einsum("db,dc->bc", omega[:, a, :], g)
        dual[:, a, :] = ginv @ rhs
    return dual


def curvature_at(
    model: ModelDefinition,
    theta,
    connection: Optional[ConnectionField] = None,
) -> CurvatureTensor:
    """Curvature components from field derivatives of the connection."""
    coords = model.chart.require(theta)
    connection = connection or connection_field(model)
    omega = connection(coords)
    # domega[l, j, k, i] = d_i w^l_jk
    domega = numdiff.fd_jacobian(connection, coords, model.chart.domain)
    n = coords.size
    # components[l, k, i, j] = d_i w^l_jk - d_j w^l_ik + w^l_is w^s_jk - w^l_js w^s_ik
    components = np.empty((n, n, n, n))
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    value = domega[l, j, k, i] - domega[l, i, k, j]
                    value += float(omega[l, i, :] @ omega[:, j, k])
                    value -= float(omega[l, j, :] @ omega[:, i, k])
                    components[l, k, i, j] = value
    return CurvatureTensor(components=components, max_abs=float(np.max(np.abs(components))))


def codazzi_residual(
    model: ModelDefinition,
    theta,
    metric: Optional[MetricField] = None,
    connection: Optional[ConnectionField] = None,
):
    """Residual of the Codazzi-Peterson compatibility equation."""
    coords = model.chart.require(theta)
    metric = metric or metric_field(model)
    connection = connection or connection_field(model)
    g = metric(coords)
    omega = connection(coords)
    dg = numdiff.fd_jacobian(metric, coords, model.chart.domain)
    n = coords.size
    residual = np.empty((n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                value = dg[b, c, a] - dg[a, c, b]
                value += float(g[a, :] @ omega[:, b, c]) - float(
                    g[b, :] @ omega[:, a, c]
                )
                residual[a, b, c] = value
    return residual, float(np.max(np.abs(residual)))


def torsion_residual(omega: np.ndarray) -> float:
    """Max-abs antisymmetric part in the lower indices."""
    return float(np.max(np.abs(omega - np.transpose(omega, (0, 2, 1)))))


def reparametrized_model(
    model: ModelDefinition,
    forward: Callable,
    inverse: Callable,
    chart: ChartSpec,
) -> ModelDefinition:
    """Express the same data set model in a different chart.

    Derivatives are taken by finite differences in the new chart; the
    wrapped divergence validates the mapped point against the original
    chart, so coupled domain constraints survive the box chart.
    """

    def divergence(x, z):
        back = model.chart.require(inverse(np.asarray(z, dtype=float)))
        return model.divergence_fn(x, back)

    def fibre_sampler(z, k):
        return model.fibre_sampler(inverse(np.asarray(z, dtype=float)), k)

    def probe_pairs(z, delta, family):
        return model.probe_pairs(inverse(np.asarray(z, dtype=float)), delta, family)

    return ModelDefinition(
        name=f"{model.name}-reparam",
        chart=chart,
        statistic_schema=model.statistic_schema,
        divergence_fn=divergence,
        gradient_fn=None,
        hessian_fn=None,
        fibre_sampler_fn=fibre_sampler,
        probe_pairs_fn=probe_pairs if model.probe_pairs_fn else None,
        fibre_capacity=model.fibre_capacity,
        closed_form_fit_fn=None,
        oracle=None,
        divergence_tag=model.divergence_tag,
    )


def canonical_chart_for(model: ModelDefinition) -> ChartSpec:
    """Box chart spanned by the canonical image of the sample box."""
    if model.oracle is None or model.oracle.affine_map is None:
        raise Unsupported(f"model {model.name} declares no affine coordinates")
    corners = []
    lows = [lo for lo, _ in model.chart.sample_box]
    highs = [hi for _, hi in model.chart.sample_box]
    for mask in range(2**model.chart.dim):
        corner = [
            highs[i] if mask & (1 << i) else lows[i] for i in range(model.chart.dim)
        ]
        corners.append(model.oracle.affine_map(np.array(corner, dtype=float)))
    corners = np.array(corners)
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    pad = 0.1 * (hi - lo + 1.0)
    domain = []
    for l, h, p in zip(lo, hi, pad):
        wide_lo, wide_hi = l - 10 * p, h + 10 * p
        # keep one-sided canonical coordinates (1/(2 sigma^2), beta, ...)
        # on their side of zero
        if l > 0 and wide_lo <= 0:
            wide_lo = 1e-3 * l
        if h < 0 and wide_hi >= 0:
            wide_hi = 1e-3 * h
        domain.append((wide_lo, wide_hi))
    return ChartSpec(
        dim=model.chart.dim,
        domain=tuple(domain),
        names=tuple(f"z{i+1}" for i in range(model.chart.dim)),
        sample_box=tuple((l, h) for l, h in zip(lo, hi)),
    )


def metric_transform_check(
    model: ModelDefinition, theta, maps=None, target_chart: Optional[ChartSpec] = None
) -> float:
    """Tensor-transformation residual of the metric under a chart change.

    ``maps`` is a (forward, inverse) pair; by default the model's affine
    coordinates and the canonical chart they span.  Both sides are
    evaluated numerically and compared through an FD Jacobian.
    """
    coords = model.chart.require(theta)
    if maps is None:
        if model.oracle is None or model.oracle.affine_map is None:
            raise Unsupported(f"model {model.name} declares no affine coordinates")
        forward, inverse = model.oracle.affine_map, model.oracle.affine_inverse
        target_chart = target_chart or canonical_chart_for(model)
    else:
        forward, inverse = maps
        if target_chart is None:
            raise Unsupported("custom chart maps need an explicit target chart")
    # both sides go through the same FD path (the target has no model
    # derivatives) so the residual measures the transformation property alone
    divergence_only = replace(model, gradient_fn=None, hessian_fn=None)
    g_source = metric_at(divergence_only, coords).matrix
    jac = numdiff.fd_jacobian(forward, coords, model.chart.domain)
    target = reparametrized_model(model, forward, inverse, target_chart)
    g_target = metric_at(target, forward(coords)).matrix
    transformed = jac.T @ g_target @ jac
    return _relative_gap(transformed, g_source, floor=1e-12)


@dataclass(frozen=True)
class CramerRaoReport:
    worst_margin: float
    worst_affine_margin: Optional[float]


def cramer_rao_check(model: ModelDefinition, theta) -> CramerRaoReport:
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
    worst = float(np.linalg.eigvalsh(metric_at(model, coords).matrix)[0])
    worst_affine = None
    oracle = model.oracle
    if oracle is not None and oracle.affine_map is not None and oracle.massieu_affine is not None:
        canonical = oracle.affine_map(coords)
        hess = numdiff.fd_hessian(oracle.massieu_affine, canonical)
        worst_affine = float(np.linalg.eigvalsh(hess)[0])
    return CramerRaoReport(worst_margin=worst, worst_affine_margin=worst_affine)
