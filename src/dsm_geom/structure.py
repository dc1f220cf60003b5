"""High-level structure: classification, affine coordinates, Massieu.

classify runs the geometry stack over a grid and applies the
identification theorem: a model with a KL-tagged divergence belongs to
the exponential family exactly when condition 4 holds and the induced
connection has a Hessian structure (probe-independent, torsionless,
flat, Codazzi-compatible).  Affine coordinates and the Massieu
potential are recovered by integrating their defining linear systems
along chart paths, with a second path recording path-independence.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import numdiff
from .core import ModelDefinition, Tolerances, as_coords
from .core import divergence_hessian, evaluate_divergence
from .errors import (
    Condition4Violated,
    DomainError,
    HessianStructureViolated,
    MetricNotPD,
    NotFlat,
    NotIntegrable,
    ProbeSingular,
)
from .geometry import (
    ConnectionField,
    MetricField,
    codazzi_residual,
    connection_at,
    connection_field,
    curvature_at,
    metric_at,
    metric_field,
    torsion_residual,
)
from .transport import _l_path, _rk4

CLASSIFY_GRID_PER_AXIS = 5
MASSIEU_HESS_TOL = 1e-3
DEFAULT_PATH_STEPS = 96


@dataclass
class GeometryReport:
    """Aggregated verdicts with the worst residual evidence per check."""

    model: str
    grid: list
    tolerances: dict
    condition4: dict = field(default_factory=dict)
    probe_consistency: dict = field(default_factory=dict)
    torsionless: dict = field(default_factory=dict)
    flat: dict = field(default_factory=dict)
    codazzi: dict = field(default_factory=dict)
    hessian_structure: str = "not-evaluated"
    exponential_family: str = "not-applicable"

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "grid": [list(map(float, point)) for point in self.grid],
            "tolerances": self.tolerances,
            "condition4": self.condition4,
            "probe_consistency": self.probe_consistency,
            "torsionless": self.torsionless,
            "flat": self.flat,
            "codazzi": self.codazzi,
            "hessian_structure": self.hessian_structure,
            "exponential_family": self.exponential_family,
        }

    @property
    def verdicts(self) -> dict:
        return {
            "condition4": self.condition4["status"],
            "hessian_structure": self.hessian_structure,
            "exponential_family": self.exponential_family,
        }


def condition4_evidence(model: ModelDefinition, point, err: Condition4Violated) -> dict:
    """Report a condition-4 failure as data: where, how far, which members."""
    coords = as_coords(point)
    hessians, labels = err.member_hessians, err.member_labels
    evidence = {
        "point": coords.tolist(),
        "deviation": err.deviation,
        "members": list(labels),
        "member_hessians": [h.tolist() for h in hessians],
    }
    if model.condition4_evidence_fn is not None:
        evidence.update(model.condition4_evidence_fn(coords, hessians, labels))
    return evidence


def default_grid(model: ModelDefinition, per_axis: int = CLASSIFY_GRID_PER_AXIS) -> list:
    if model.classify_points_fn is not None:
        return model.classify_points_fn(per_axis)
    return model.chart.central_grid(per_axis)


def classify(
    model: ModelDefinition,
    theta_grid: Optional[list] = None,
    fibre_k: int = 3,
    tol: Tolerances = Tolerances(),
) -> GeometryReport:
    """Run the full identification chain over a grid of chart points."""
    grid = theta_grid if theta_grid is not None else default_grid(model)
    grid = [as_coords(point) for point in grid]
    if not grid:
        raise DomainError(f"classify of {model.name} needs at least one grid point")
    report = GeometryReport(
        model=model.name,
        grid=grid,
        tolerances={
            "cond4": tol.cond4,
            "hessian": tol.hessian,
            "flat": tol.flat,
            "torsion": tol.torsion,
            "codazzi": tol.codazzi,
        },
    )
    worst = {"cond4": 0.0, "probe": 0.0, "torsion": 0.0, "flat": 0.0, "codazzi": 0.0}
    worst_points = {}
    failure_evidence = None
    metric = metric_field(model, fibre_k=fibre_k, tol=tol)
    conn = connection_field(model, tol=tol)

    def track(key, value, point):
        if value > worst[key]:
            worst[key] = value
            worst_points[key] = [float(c) for c in point]

    for point in grid:
        try:
            evaluation = metric_at(model, point, fibre_k=fibre_k, tol=tol)
        except Condition4Violated as err:
            failure_evidence = condition4_evidence(model, point, err)
            track("cond4", err.deviation, point)
            continue
        except MetricNotPD as err:
            failure_evidence = {"point": point.tolist(), "error": str(err)}
            track("cond4", float("inf"), point)
            continue
        track("cond4", evaluation.fibre_deviation, point)
        if not model.has_probes:
            continue
        try:
            connection = connection_at(model, point, tol=tol)
        except HessianStructureViolated as err:
            track("probe", err.deviation, point)
            continue
        except ProbeSingular as err:
            failure_evidence = {"point": point.tolist(), "error": str(err)}
            track("probe", float("inf"), point)
            continue
        track("probe", connection.probe_consistency, point)
        track("torsion", torsion_residual(connection.omega), point)
        track("flat", curvature_at(model, point, connection=conn).max_abs, point)
        track(
            "codazzi",
            codazzi_residual(model, point, metric=metric, connection=conn)[1],
            point,
        )
    cond4_ok = worst["cond4"] <= tol.cond4
    report.condition4 = {
        "status": "pass" if cond4_ok else "fail",
        "worst_deviation": worst["cond4"],
        "worst_point": worst_points.get("cond4"),
        "evidence": failure_evidence,
    }
    if not cond4_ok or not model.has_probes:
        not_run = "not-evaluated"
        report.probe_consistency = {"status": not_run, "worst": None}
        report.torsionless = {"status": not_run, "residual": None}
        report.flat = {"status": not_run, "max_curvature": None}
        report.codazzi = {"status": not_run, "residual": None}
        report.hessian_structure = "fail" if not cond4_ok else not_run
    else:
        probe_ok = worst["probe"] <= tol.hessian
        torsion_ok = worst["torsion"] <= tol.torsion
        flat_ok = worst["flat"] <= tol.flat
        codazzi_ok = worst["codazzi"] <= tol.codazzi
        report.probe_consistency = {
            "status": "pass" if probe_ok else "fail",
            "worst": worst["probe"],
            "worst_point": worst_points.get("probe"),
        }
        report.torsionless = {
            "status": "pass" if torsion_ok else "fail",
            "residual": worst["torsion"],
            "worst_point": worst_points.get("torsion"),
        }
        report.flat = {
            "status": "pass" if flat_ok else "fail",
            "max_curvature": worst["flat"],
            "worst_point": worst_points.get("flat"),
        }
        report.codazzi = {
            "status": "pass" if codazzi_ok else "fail",
            "residual": worst["codazzi"],
            "worst_point": worst_points.get("codazzi"),
        }
        report.hessian_structure = (
            "pass" if (probe_ok and torsion_ok and flat_ok and codazzi_ok) else "fail"
        )
    if model.divergence_tag != "kl":
        report.exponential_family = "not-applicable"
    elif cond4_ok and report.hessian_structure == "pass":
        report.exponential_family = "yes"
    else:
        report.exponential_family = "no"
    return report


# ---------------------------------------------------------------------------
# Affine coordinates and the Massieu potential (Mayer-Lie integration)
# ---------------------------------------------------------------------------


@dataclass
class AffineCoordinateMap:
    reference: np.ndarray
    targets: list
    values: list  # Theta(target), gauge Theta(theta0) = 0, dTheta(theta0) = I
    gradients: list  # dTheta/dzeta at each target
    path_residuals: list

    def as_array(self) -> np.ndarray:
        return np.array(self.values)


@dataclass
class MassieuSample:
    reference: np.ndarray
    targets: list
    potentials: list  # Phi(target), gauge Phi(theta0) = 0, dPhi(theta0) = 0
    covectors: list  # alpha(target)
    path_residuals: list
    hessian_residuals: list
    curl_residuals: list


def _integrate_affine(conn: ConnectionField, waypoints, state, steps):
    """Advance (G, Theta) along a piecewise-linear path.

    G rows are chart gradients of the affine functions; along a segment
    with tangent delta they obey dG = G M with M[c, b] = delta^a w^c_ab.
    """
    n = waypoints[0].size
    h = 1.0 / steps
    for seg in range(len(waypoints) - 1):
        start, stop = waypoints[seg], waypoints[seg + 1]
        delta = stop - start
        if not np.any(delta):
            continue

        def rhs(s, packed):
            grads = packed[: n * n].reshape(n, n)
            omega = conn(start + s * delta)
            mixer = np.einsum("a,cab->cb", delta, omega)
            dgrads = grads @ mixer
            dvalues = grads @ delta
            return np.concatenate([dgrads.ravel(), dvalues])

        for k in range(steps):
            state = _rk4(state, rhs, k * h, h)
    return state


def affine_coordinates(
    model: ModelDefinition,
    theta0,
    targets,
    connection: Optional[ConnectionField] = None,
    steps: int = DEFAULT_PATH_STEPS,
    tol: Tolerances = Tolerances(),
) -> AffineCoordinateMap:
    """Integrate the affine-coordinate system along straight chart paths.

    Solutions are seeded with the identity gradient at theta0, so the
    recovered coordinates agree with any closed form up to an affine
    gauge.  A second, axis-aligned path records the path-independence
    residual; disagreement means the connection is not flat.
    """
    reference = model.chart.require(theta0)
    conn = connection or connection_field(model, tol=tol)
    n = reference.size
    seed = np.concatenate([np.eye(n).ravel(), np.zeros(n)])
    values, gradients, residuals = [], [], []
    for target in targets:
        stop = model.chart.require(target)
        straight = _integrate_affine(conn, [reference, stop], seed.copy(), steps)
        detour = _integrate_affine(conn, _l_path(reference, stop), seed.copy(), steps)
        value = straight[n * n :]
        scale = max(float(np.max(np.abs(value))), 1.0)
        residual = float(np.max(np.abs(value - detour[n * n :]))) / scale
        if residual > tol.path:
            raise NotFlat(
                f"affine coordinates of {model.name} are path-dependent "
                f"(residual {residual:.3g}) towards {stop.tolist()}",
                residual=residual,
            )
        values.append(value)
        gradients.append(straight[: n * n].reshape(n, n))
        residuals.append(residual)
    return AffineCoordinateMap(
        reference=reference,
        targets=[as_coords(t) for t in targets],
        values=values,
        gradients=gradients,
        path_residuals=residuals,
    )


def _integrate_massieu(metric, conn, waypoints, state, steps):
    n = waypoints[0].size
    h = 1.0 / steps
    for seg in range(len(waypoints) - 1):
        start, stop = waypoints[seg], waypoints[seg + 1]
        delta = stop - start
        if not np.any(delta):
            continue

        def rhs(s, packed):
            alpha, _ = packed[:n], packed[n]
            point = start + s * delta
            g = metric(point)
            omega = conn(point)
            dalpha = np.einsum("a,ab->b", delta, g) + np.einsum(
                "a,cab,c->b", delta, omega, alpha
            )
            dphi = float(delta @ alpha)
            return np.concatenate([dalpha, [dphi]])

        for k in range(steps):
            state = _rk4(state, rhs, k * h, h)
    return state


def massieu(
    model: ModelDefinition,
    theta0,
    targets,
    metric: Optional[MetricField] = None,
    connection: Optional[ConnectionField] = None,
    steps: int = DEFAULT_PATH_STEPS,
    tol: Tolerances = Tolerances(),
    verify: bool = True,
) -> MassieuSample:
    """Reconstruct the Massieu potential from the Mayer-Lie system.

    Integrates d alpha_b = (g_ab + w^c_ab alpha_c) dzeta^a and
    d Phi = alpha_a dzeta^a from theta0 with zero gauge.  At every
    target the covariant Hessian of the sampled potential is compared
    with the metric, and the curl of alpha is checked.
    """
    reference = model.chart.require(theta0)
    metric = metric or metric_field(model, tol=tol)
    conn = connection or connection_field(model, tol=tol)
    n = reference.size
    seed = np.zeros(n + 1)
    potentials, covectors, residuals = [], [], []
    hessian_residuals, curl_residuals = [], []
    for target in targets:
        stop = model.chart.require(target)
        straight = _integrate_massieu(metric, conn, [reference, stop], seed.copy(), steps)
        detour = _integrate_massieu(
            metric, conn, _l_path(reference, stop), seed.copy(), steps
        )
        scale = max(float(np.max(np.abs(straight))), 1.0)
        residual = float(np.max(np.abs(straight - detour))) / scale
        if residual > tol.path:
            raise NotIntegrable(
                f"Mayer-Lie system of {model.name} is path-dependent "
                f"(residual {residual:.3g}) towards {stop.tolist()}",
                residual=residual,
            )
        alpha, phi = straight[:n], float(straight[n])
        potentials.append(phi)
        covectors.append(alpha)
        residuals.append(residual)
        if verify:
            hess_res, curl_res = _verify_massieu(
                model, metric, conn, stop, alpha, phi, steps
            )
            if hess_res > MASSIEU_HESS_TOL:
                raise NotIntegrable(
                    f"covariant Hessian of the sampled potential deviates from "
                    f"the metric by {hess_res:.3g} at {stop.tolist()}",
                    residual=hess_res,
                )
            hessian_residuals.append(hess_res)
            curl_residuals.append(curl_res)
    return MassieuSample(
        reference=reference,
        targets=[as_coords(t) for t in targets],
        potentials=potentials,
        covectors=covectors,
        path_residuals=residuals,
        hessian_residuals=hessian_residuals,
        curl_residuals=curl_residuals,
    )


def _verify_massieu(model, metric, conn, target, alpha, phi, steps):
    """FD-check the sampled potential around one target.

    Short continuation integrations extend (alpha, Phi) to a stencil so
    the potential's plain Hessian and alpha's curl can be measured
    independently of the defining ODE.
    """
    n = target.size
    cfg = numdiff.DiffConfig.for_chart(model.chart)
    state0 = np.concatenate([alpha, [phi]])

    def continue_to(point):
        return _integrate_massieu(metric, conn, [target, point], state0.copy(), 32)

    def phi_at(point):
        return float(continue_to(point)[n])

    def alpha_at(point):
        return continue_to(point)[:n]

    plain_hess = numdiff.fd_hessian(phi_at, target, cfg)
    grad = numdiff.fd_gradient(phi_at, target, cfg)
    omega = conn(target)
    covariant = plain_hess - np.einsum("cab,c->ab", omega, grad)
    g = metric(target)
    hess_res = float(np.max(np.abs(covariant - g))) / max(float(np.max(np.abs(g))), 1e-12)
    jac = numdiff.fd_jacobian(alpha_at, target, cfg)  # jac[b, a] = d_a alpha_b
    curl_res = float(np.max(np.abs(jac - jac.T)))
    return hess_res, curl_res


# ---------------------------------------------------------------------------
# Pythagorean structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PythagoreanReport:
    max_deviation: float
    induced_value: float
    member_labels: tuple


def pythagorean_check(
    model: ModelDefinition, theta, m_other, fibre_k: int = 3
) -> PythagoreanReport:
    """Fibre constancy of D(x || m_other) - D(x || m_theta).

    When the difference is constant over the fibre it defines the
    induced proper divergence between the two model points.
    """
    coords = model.chart.require(theta)
    other = model.chart.require(m_other)
    members = model.fibre_sampler(coords, min(fibre_k, model.fibre_capacity))
    differences = [
        evaluate_divergence(model, x, other) - evaluate_divergence(model, x, coords)
        for x in members
    ]
    deviation = max(differences) - min(differences) if len(differences) > 1 else 0.0
    return PythagoreanReport(
        max_deviation=float(deviation),
        induced_value=float(np.mean(differences)),
        member_labels=tuple(x.label for x in members),
    )


def induced_divergence_geometry_check(model: ModelDefinition, theta) -> tuple:
    """Geometry of the induced proper divergence versus the model geometry.

    The induced divergence D(m_a || m_b) = D(x_a || m_b) - D(x_a || m_a)
    is built from a smooth fibre representative x_a.  Its second
    derivative in the second slot reproduces the metric; its mixed third
    derivative reproduces the connection through
    w^k_ij = -g^{ks} d/da^s [d^2/db^i db^j D(m_a || m_b)] at a = b.
    """
    coords = model.chart.require(theta)

    def representative(a):
        return model.fibre_sampler(a, 1)[0]

    def induced(a, b):
        x = representative(a)
        return evaluate_divergence(model, x, b) - evaluate_divergence(model, x, a)

    cfg = numdiff.DiffConfig.for_chart(model.chart)
    metric_fd = numdiff.fd_hessian(lambda b: induced(coords, b), coords, cfg)
    g = metric_at(model, coords).matrix
    metric_residual = float(np.max(np.abs(metric_fd - g))) / max(
        float(np.max(np.abs(g))), 1e-12
    )

    def second_slot_hessian(a):
        return divergence_hessian(model, representative(a), coords)

    n = coords.size
    third = np.stack(
        [numdiff.fd_field_derivative(second_slot_hessian, coords, s, cfg) for s in range(n)]
    )
    ginv = np.linalg.inv(g)
    omega_induced = -np.einsum("ks,sij->kij", ginv, third)
    omega = connection_at(model, coords).omega
    scale = max(float(np.max(np.abs(omega))), 1.0)
    connection_residual = float(np.max(np.abs(omega_induced - omega))) / scale
    return metric_residual, connection_residual
