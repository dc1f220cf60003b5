"""High-level structure: classification, affine coordinates, Massieu.

classify runs the geometry stack over a grid and applies the
identification theorem: a model with a KL-tagged divergence belongs to
the exponential family exactly when condition 4 holds and the induced
connection has a Hessian structure (probe-independent, flat,
Codazzi-compatible).  The solved connection is torsion-free by
construction: each probe Hessian is symmetric, so the (i, j) and (j, i)
columns of a probe family's solve share one right-hand side, and no
torsion check could fail.  Affine coordinates and the Massieu
potential are recovered by integrating their defining linear systems
along chart paths, with a second path recording path-independence.  These
solves return their residuals and judge none of them: on a curved model
the second path disagrees, and that is the caller's ``fail`` verdict
(``core.passes`` against ``tol.path``), not an error.
The two-path solve is ``transport._two_paths``, which also judges a
covariant-constant field; it samples the systems' coefficients (the
connection, and the metric for Massieu) once per segment at Chebyshev nodes.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import numdiff
from .core import MAX_POINTS, ModelDefinition, Tolerances, passes, require_points
from .core import divergence_hessian, evaluate_divergence
from .errors import Condition4Violated, DomainError, MetricNotPD, ProbeSingular, Unsupported
from .geometry import (
    _codazzi_residuals,
    _connection,
    _curvatures,
    _fibre_stack,
    _relative_gap,
    connection_at,
    connection_field,
    metric_field,
)
from .transport import _two_paths

CLASSIFY_GRID_PER_AXIS = 5

# each check: its report block, the key of the block's value, and the
# tolerance that value is compared with (also the check's key in classify's worst)
_CHECKS = (
    ("condition4", "worst_deviation", "cond4"),
    ("probe_consistency", "worst", "hessian"),
    ("flat", "max_curvature", "flat"),
    ("codazzi", "residual", "codazzi"),
)


@dataclass
class GeometryReport:
    """Aggregated verdicts with the worst residual evidence per check;
    ``dataclasses.asdict`` gives its document."""

    model: str
    grid: list  # of lists of floats
    tolerances: dict
    condition4: dict
    probe_consistency: dict
    flat: dict
    codazzi: dict
    hessian_structure: str
    exponential_family: str

    @property
    def verdicts(self) -> dict:
        return {
            "condition4": self.condition4["status"],
            "hessian_structure": self.hessian_structure,
            "exponential_family": self.exponential_family,
        }


def condition4_evidence(model: ModelDefinition, err: Condition4Violated) -> dict:
    """Report a condition-4 failure as data: where, how far, which members."""
    coords, hessians, labels = err.point, err.member_hessians, err.member_labels
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
    """The model's own curve of ``per_axis`` points, else the chart's grid of ``per_axis ** dim``;
    one that would be empty or over ``MAX_POINTS`` is refused before it is built."""
    if type(per_axis) is bool or not isinstance(per_axis, (int, np.integer)):
        raise DomainError(f"a {model.name} grid needs a whole count per axis, got {per_axis!r}")
    curve = model.classify_points_fn
    count = max(per_axis, 0) ** (1 if curve else model.chart.dim)
    if not 1 <= count <= MAX_POINTS:
        raise DomainError(
            f"a {model.name} grid of {per_axis} per axis has {count} points, "
            f"outside the budget of 1 to {MAX_POINTS}"
        )
    return curve(per_axis) if curve else model.chart.central_grid(per_axis)


def classify(
    model: ModelDefinition,
    theta_grid: Optional[list] = None,
    tol: Tolerances = Tolerances(),
) -> GeometryReport:
    """Run the full identification chain over a grid of chart points."""
    grid = theta_grid if theta_grid is not None else default_grid(model)
    grid = require_points(grid, model.chart.domain, "classify grid point")
    tolerances = asdict(tol)
    del tolerances["path"]  # the affine and Massieu tolerance: no classify check
    metric = metric_field(model, tol=tol)
    conn = connection_field(model, tol=tol)
    # each grid point's checks in the order it runs them, as (key, value,
    # error): the error is a failed check's evidence, or, with no key, what
    # ends classify at that point
    events = [[] for _ in grid]

    def record(index, key, value, err=None):
        events[index].append((key, value, err))

    # each phase evaluates every grid point that reached it as one stack, in
    # which each point is a segment of its own: 1. the condition-4 gate
    gated = []
    gates, _ = _fibre_stack(model, grid, sizes=[1] * len(grid))
    for index, gate in enumerate(gates):
        try:
            record(index, "cond4", gate.metric_at(tol=tol).fibre_deviation)
        except Condition4Violated as err:
            record(index, "cond4", err.deviation, err)
            continue
        except (MetricNotPD, ArithmeticError) as err:
            record(index, "cond4", math.inf, err)
            continue
        except Exception as err:
            record(index, None, None, err)
            continue
        gated.append(index)
    # 2. both probe families' connections, as connection_at solves them
    probed = []
    gates, solves = _fibre_stack(model, [grid[index] for index in gated], (0, 1), [1] * len(gated))
    for index, gate, families in zip(gated, gates, solves):
        try:
            gate.metric_at(tol=tol)  # the condition-4 gate
            first, other = (_connection(model, gate.coords, terms) for terms in families)
            gap = _relative_gap(other, first)
        except Unsupported:  # neighbours with no fibre: the probe check is not evaluated
            continue
        except (ProbeSingular, ArithmeticError) as err:
            record(index, "hessian", math.inf, err)
            continue
        except Exception as err:
            record(index, None, None, err)
            continue
        record(index, "hessian", gap)
        if passes(gap, tol.hessian):
            probed.append(index)
    # 3. curvature and 4. Codazzi where the probe families agree; a condition-4
    # failure at an FD stencil point is a verdict
    def stencil_check(indices, results, key, value) -> list:
        """Record each point's result; the points whose check was taken."""
        taken = []
        for index, result in zip(indices, results):
            if isinstance(result, Condition4Violated):
                record(index, "cond4", result.deviation, result)
            elif isinstance(result, Exception):
                record(index, None, None, result)
            else:
                record(index, key, value(result))
                taken.append(index)
        return taken

    curvatures = _curvatures(conn, [grid[index] for index in probed])
    flat = stencil_check(probed, curvatures, "flat", lambda tensor: tensor.max_abs)
    residuals = _codazzi_residuals(metric, conn, [grid[index] for index in flat])
    stencil_check(flat, residuals, "codazzi", lambda residual: residual[1])

    # replayed in grid order, as running each point's checks one point after
    # another records and raises them: each check keeps its first largest
    # value, a NaN outranking any number
    worst = {}  # of each check run at some grid point: (value, point, evidence)
    for point, recorded in zip(grid, events):
        for key, value, err in recorded:
            if key is None:
                raise err
            evidence = None
            if isinstance(err, Condition4Violated):
                evidence = condition4_evidence(model, err)
            elif err is not None:
                evidence = {"point": point.tolist(), "error": str(err)}
            old = worst[key][0] if key in worst else -np.inf
            if value > old or (np.isnan(value) and not np.isnan(old)):
                worst[key] = (value, [float(c) for c in point], evidence)
    blocks = {}
    for block, value_key, key in _CHECKS:
        value, point, evidence = worst.get(key, (None, None, None))
        entry = {"status": "not-evaluated", value_key: None}
        # a Hessian-structure check is decided only where condition 4 holds
        if key in worst and (key == "cond4" or blocks["condition4"]["status"] == "pass"):
            status = "pass" if passes(value, tolerances[key]) else "fail"
            entry = {"status": status, value_key: value, "worst_point": point}
        if evidence is not None or key == "cond4":
            entry["evidence"] = evidence
        blocks[block] = entry
    statuses = {entry["status"] for entry in blocks.values()}
    verdict = "fail" if "fail" in statuses else "pass" if statuses == {"pass"} else "not-evaluated"
    family = {"pass": "yes", "fail": "no"}.get(verdict, "not-evaluated")
    return GeometryReport(
        model.name, [list(map(float, point)) for point in grid], tolerances, **blocks,
        hessian_structure=verdict,
        exponential_family=family if model.divergence_tag == "kl" else "not-applicable",
    )


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


def _affine_rhs(omega, delta, packed):
    """d(G, Theta)/ds on a segment with tangent delta.

    G rows are chart gradients of the affine functions; they obey
    dG = G M with M[c, b] = delta^a w^c_ab.
    """
    n = delta.size
    grads = packed[: n * n].reshape(n, n)
    mixer = np.einsum("a,cab->cb", delta, omega)
    return np.concatenate([(grads @ mixer).ravel(), grads @ delta])


def affine_coordinates(
    model: ModelDefinition,
    theta0,
    targets,
    tol: Tolerances = Tolerances(),
) -> AffineCoordinateMap:
    """Integrate the affine-coordinate system along straight chart paths.

    Solutions are seeded with the identity gradient at theta0, so the
    recovered coordinates agree with any closed form up to an affine
    gauge.  A second, axis-aligned path gives each target's
    path-independence residual (``path_residuals``); one beyond
    ``tol.path`` means the connection is not flat.
    """
    n = model.chart.dim
    seed = np.concatenate([np.eye(n).ravel(), np.zeros(n)])
    conn = connection_field(model, tol=tol)
    part = slice(n * n, None)  # the coordinates Theta, after the gradient rows
    reference = model.chart.require(theta0)
    domain = model.chart.domain
    stops = require_points(targets, domain, "target")
    ends, gaps = _two_paths(_affine_rhs, conn, seed, reference, stops, domain, tol.path, part)
    gradients = [end[: n * n].reshape(n, n) for end in ends]
    return AffineCoordinateMap(reference, stops, [end[part] for end in ends], gradients, gaps)


def _massieu_rhs(local, delta, packed):
    """d(alpha, Phi)/ds of the Mayer-Lie system on a segment with tangent delta.

    ``local`` is the pair (metric, connection) at a point of the segment.
    """
    g, omega = local
    alpha = packed[: delta.size]
    dalpha = np.einsum("a,ab->b", delta, g) + np.einsum(
        "a,cab,c->b", delta, omega, alpha
    )
    dphi = float(delta @ alpha)
    return np.concatenate([dalpha, [dphi]])


def massieu(
    model: ModelDefinition,
    theta0,
    targets,
    tol: Tolerances = Tolerances(),
) -> MassieuSample:
    """Reconstruct the Massieu potential from the Mayer-Lie system.

    Integrates d alpha_b = (g_ab + w^c_ab alpha_c) dzeta^a and
    d Phi = alpha_a dzeta^a from theta0 with zero gauge.  A potential
    exists exactly when the connection is flat, so every target's one
    check is the two-path gap (``path_residuals``, against ``tol.path``).
    No check near a single target can stand in for it: continuing
    (alpha, Phi) from a target along straight rays makes Phi's covariant
    Hessian the metric and alpha's Jacobian symmetric for any torsion-free
    connection, flat or not.
    """

    def local(point):
        # one gated evaluation: the connection's condition-4 gate is the metric
        evaluation = connection_at(model, point, check_consistency=False, tol=tol)
        return evaluation.metric.matrix, evaluation.omega

    n = model.chart.dim
    seed = np.zeros(n + 1)
    reference = model.chart.require(theta0)
    domain = model.chart.domain
    stops = require_points(targets, domain, "target")
    ends, gaps = _two_paths(_massieu_rhs, local, seed, reference, stops, domain, tol.path)
    potentials = [float(end[n]) for end in ends]
    return MassieuSample(reference, stops, potentials, [end[:n] for end in ends], gaps)


# ---------------------------------------------------------------------------
# Pythagorean structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PythagoreanReport:
    max_deviation: float
    induced_value: float
    member_labels: tuple


def pythagorean_check(model: ModelDefinition, theta, m_other) -> PythagoreanReport:
    """Fibre constancy of D(x || m_other) - D(x || m_theta).

    When the difference is constant over the fibre it defines the
    induced proper divergence between the two model points.
    """
    coords = model.chart.require(theta)
    other = model.chart.require(m_other)
    members = model.fibre_sampler(coords)
    differences = [
        evaluate_divergence(model, x, other) - evaluate_divergence(model, x, coords)
        for x in members
    ]
    deviation = max(differences) - min(differences)
    return PythagoreanReport(
        max_deviation=float(deviation),
        induced_value=float(np.mean(differences)),
        member_labels=tuple(x.label for x in members),
    )


def induced_divergence_geometry_check(
    model: ModelDefinition, theta, tol: Tolerances = Tolerances()
) -> tuple:
    """Geometry of the induced proper divergence versus the model geometry.

    The induced divergence D(m_a || m_b) = D(x_a || m_b) - D(x_a || m_a)
    is built from a smooth fibre representative x_a.  Its second
    derivative in the second slot reproduces the metric; its mixed third
    derivative reproduces the connection through
    w^k_ij = -g^{ks} d/da^s [d^2/db^i db^j D(m_a || m_b)] at a = b.
    """
    coords = model.chart.require(theta)

    def representative(a):
        return model.fibre_sampler(a)[0]

    def induced(a, b):
        x = representative(a)
        return evaluate_divergence(model, x, b) - evaluate_divergence(model, x, a)

    metric_fd = numdiff.fd_hessian(lambda b: induced(coords, b), coords, model.chart.domain)
    evaluation = connection_at(model, coords, tol=tol)  # its condition-4 gate gives the metric
    g = evaluation.metric.matrix
    metric_residual = _relative_gap(metric_fd, g, floor=1e-12)

    def second_slot_hessian(a):
        return divergence_hessian(model, representative(a), coords)

    third = numdiff.fd_jacobian(second_slot_hessian, coords, model.chart.domain)
    ginv = np.linalg.inv(g)
    omega_induced = -np.einsum("ks,ijs->kij", ginv, third)
    connection_residual = _relative_gap(omega_induced, evaluation.omega)
    return metric_residual, connection_residual
