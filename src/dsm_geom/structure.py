"""High-level structure: classification, affine coordinates, Massieu.

classify runs the geometry stack over a grid and applies the
identification theorem: a model with a KL-tagged divergence belongs to
the exponential family exactly when condition 4 holds and the induced
connection has a Hessian structure (probe-independent, torsionless,
flat, Codazzi-compatible).  Affine coordinates and the Massieu
potential are recovered by integrating their defining linear systems
along chart paths, with a second path recording path-independence.  The
systems' coefficients (the connection, and the metric for Massieu) are
sampled once per path segment at Chebyshev nodes, where one linear solve
gives the state (``transport._along``).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
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
    FIBRE_K_DEFAULT,
    ConnectionField,
    codazzi_residual,
    connection_at,
    connection_field,
    curvature_at,
    metric_at,
    metric_field,
    torsion_residual,
)
from .transport import _along, _l_path, _segment

CLASSIFY_GRID_PER_AXIS = 5

# the Hessian-structure checks: report block, key of the block's value, and
# the tolerance that value is compared with (also its key in classify's worst)
_HESSIAN_CHECKS = (
    ("probe_consistency", "worst", "hessian"),
    ("torsionless", "residual", "torsion"),
    ("flat", "max_curvature", "flat"),
    ("codazzi", "residual", "codazzi"),
)


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
    fibre_k: int = FIBRE_K_DEFAULT,
    tol: Tolerances = Tolerances(),
) -> GeometryReport:
    """Run the full identification chain over a grid of chart points."""
    grid = theta_grid if theta_grid is not None else default_grid(model)
    grid = [as_coords(point) for point in grid]
    if not grid:
        raise DomainError(f"classify of {model.name} needs at least one grid point")
    tolerances = asdict(tol)
    del tolerances["path"]  # the affine and Massieu tolerance: no classify check
    report = GeometryReport(model=model.name, grid=grid, tolerances=tolerances)
    worst = dict.fromkeys(tolerances, 0.0)
    worst_points = {}
    failure_evidence = None
    metric = metric_field(model, fibre_k=fibre_k, tol=tol)
    conn = connection_field(model, fibre_k=fibre_k, tol=tol)

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
        except (MetricNotPD, ArithmeticError) as err:
            failure_evidence = {"point": point.tolist(), "error": str(err)}
            track("cond4", float("inf"), point)
            continue
        track("cond4", evaluation.fibre_deviation, point)
        if not model.has_probes:
            continue
        try:
            connection = connection_at(model, point, fibre_k=fibre_k, tol=tol)
        except HessianStructureViolated as err:
            track("hessian", err.deviation, point)
            continue
        except (ProbeSingular, ArithmeticError) as err:
            failure_evidence = {"point": point.tolist(), "error": str(err)}
            track("hessian", float("inf"), point)
            continue
        track("hessian", connection.probe_consistency, point)
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
    evaluated = cond4_ok and model.has_probes
    for block, value_key, key in _HESSIAN_CHECKS:
        entry = {"status": "not-evaluated", value_key: None}
        if evaluated:
            entry = {
                "status": "pass" if worst[key] <= tolerances[key] else "fail",
                value_key: worst[key],
                "worst_point": worst_points.get(key),
            }
        setattr(report, block, entry)
    if cond4_ok and not model.has_probes:
        report.hessian_structure = "not-evaluated"
    else:
        passed = [getattr(report, block)["status"] == "pass" for block, *_ in _HESSIAN_CHECKS]
        report.hessian_structure = "pass" if all(passed) else "fail"
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


@dataclass
class MassieuSample:
    reference: np.ndarray
    targets: list
    potentials: list  # Phi(target), gauge Phi(theta0) = 0, dPhi(theta0) = 0
    covectors: list  # alpha(target)
    path_residuals: list
    hessian_residuals: list
    curl_residuals: list


def _affine_rhs(omega, delta, packed):
    """d(G, Theta)/ds on a segment with tangent delta.

    G rows are chart gradients of the affine functions; they obey
    dG = G M with M[c, b] = delta^a w^c_ab.
    """
    n = delta.size
    grads = packed[: n * n].reshape(n, n)
    mixer = np.einsum("a,cab->cb", delta, omega)
    return np.concatenate([(grads @ mixer).ravel(), grads @ delta])


def _integrate_affine(conn: ConnectionField, waypoints, state, tol=Tolerances()):
    """Advance (G, Theta) along a piecewise-linear path, well within ``tol.path``."""
    return _along(_affine_rhs, conn, state, waypoints, tol.path)[-1][2]


def affine_coordinates(
    model: ModelDefinition,
    theta0,
    targets,
    tol: Tolerances = Tolerances(),
) -> AffineCoordinateMap:
    """Integrate the affine-coordinate system along straight chart paths.

    Solutions are seeded with the identity gradient at theta0, so the
    recovered coordinates agree with any closed form up to an affine
    gauge.  A second, axis-aligned path records the path-independence
    residual; disagreement means the connection is not flat.
    """
    reference = model.chart.require(theta0)
    conn = connection_field(model, tol=tol)
    n = reference.size
    seed = np.concatenate([np.eye(n).ravel(), np.zeros(n)])
    values, gradients, residuals = [], [], []
    for target in targets:
        stop = model.chart.require(target)
        straight = _integrate_affine(conn, [reference, stop], seed.copy(), tol)
        detour = _integrate_affine(conn, _l_path(reference, stop), seed.copy(), tol)
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


def _unpack_local(coeffs, n):
    """The metric and the connection from one flat Massieu ``local`` value."""
    return coeffs[: n * n].reshape(n, n), coeffs[n * n :].reshape(n, n, n)


def _massieu_rhs(coeffs, delta, packed):
    """d(alpha, Phi)/ds of the Mayer-Lie system on a segment with tangent delta."""
    n = delta.size
    g, omega = _unpack_local(coeffs, n)
    alpha = packed[:n]
    dalpha = np.einsum("a,ab->b", delta, g) + np.einsum(
        "a,cab,c->b", delta, omega, alpha
    )
    dphi = float(delta @ alpha)
    return np.concatenate([dalpha, [dphi]])


def _integrate_massieu(local, waypoints, state, tol=Tolerances()):
    """Advance (alpha, Phi) along a piecewise-linear path, well within ``tol.path``.

    ``local(point)`` gives the metric and the connection at a chart point,
    packed flat.
    """
    return _along(_massieu_rhs, local, state, waypoints, tol.path)[-1][2]


def massieu(
    model: ModelDefinition,
    theta0,
    targets,
    tol: Tolerances = Tolerances(),
    verify: bool = True,
) -> MassieuSample:
    """Reconstruct the Massieu potential from the Mayer-Lie system.

    Integrates d alpha_b = (g_ab + w^c_ab alpha_c) dzeta^a and
    d Phi = alpha_a dzeta^a from theta0 with zero gauge.  At every
    target the covariant Hessian of the sampled potential is compared
    with the metric (within ``tol.hessian``), and the curl of alpha is
    checked.
    """
    reference = model.chart.require(theta0)

    def local(point):
        # one gated evaluation: the connection's condition-4 gate is the metric
        evaluation = connection_at(model, point, check_consistency=False, tol=tol)
        return np.concatenate([evaluation.metric.matrix.ravel(), evaluation.omega.ravel()])

    n = reference.size
    seed = np.zeros(n + 1)
    potentials, covectors, residuals = [], [], []
    hessian_residuals, curl_residuals = [], []
    for target in targets:
        stop = model.chart.require(target)
        straight = _integrate_massieu(local, [reference, stop], seed.copy(), tol)
        detour = _integrate_massieu(local, _l_path(reference, stop), seed.copy(), tol)
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
            hess_res, curl_res = _verify_massieu(model, local, stop, alpha, phi)
            if hess_res > tol.hessian:
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


def _verify_massieu(model, local, target, alpha, phi):
    """FD-check the sampled potential around one target.

    Short continuations extend (alpha, Phi) to the stencil points, each
    continued once (the gradient and Jacobian stencils are the Hessian's
    axis points), so the potential's plain Hessian and alpha's curl can be
    measured independently of the defining ODE.  Each continuation is one
    ``transport._segment`` solve at the 3 Lobatto nodes s = 0, 1/2, 1 (the
    3-stage Lobatto IIIA step, 4th order); a segment is about
    ``numdiff.REL_STEP`` long, where that error is far below the stencil's.
    The node at the target is evaluated once for all.
    """
    n = target.size
    domain = model.chart.domain
    state0 = np.concatenate([alpha, [phi]])
    at_target = local(target)
    continued = {target.tobytes(): state0}  # the stencil centre needs no step

    def continue_to(point):
        key = point.tobytes()
        if key not in continued:
            run = _segment(
                _massieu_rhs, local, target, point - target, state0, 3, {0: at_target}
            )
            continued[key] = run[-1][1]
        return continued[key]

    def phi_at(point):
        return float(continue_to(point)[n])

    def alpha_at(point):
        return continue_to(point)[:n]

    plain_hess = numdiff.fd_hessian(phi_at, target, domain)
    grad = numdiff.fd_gradient(phi_at, target, domain)
    g, omega = _unpack_local(at_target, n)
    covariant = plain_hess - np.einsum("cab,c->ab", omega, grad)
    hess_res = float(np.max(np.abs(covariant - g))) / max(float(np.max(np.abs(g))), 1e-12)
    jac = numdiff.fd_jacobian(alpha_at, target, domain)  # jac[b, a] = d_a alpha_b
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
    model: ModelDefinition, theta, m_other, fibre_k: int = FIBRE_K_DEFAULT
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

    metric_fd = numdiff.fd_hessian(lambda b: induced(coords, b), coords, model.chart.domain)
    evaluation = connection_at(model, coords)  # its condition-4 gate gives the metric
    g = evaluation.metric.matrix
    metric_residual = float(np.max(np.abs(metric_fd - g))) / max(
        float(np.max(np.abs(g))), 1e-12
    )

    def second_slot_hessian(a):
        return divergence_hessian(model, representative(a), coords)

    third = numdiff.fd_jacobian(second_slot_hessian, coords, model.chart.domain)
    ginv = np.linalg.inv(g)
    omega_induced = -np.einsum("ks,ijs->kij", ginv, third)
    omega = evaluation.omega
    scale = max(float(np.max(np.abs(omega))), 1.0)
    connection_residual = float(np.max(np.abs(omega_induced - omega))) / scale
    return metric_residual, connection_residual
