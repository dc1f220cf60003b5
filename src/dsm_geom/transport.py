"""Geodesics, parallel transport and covariant-constant fields.

One fixed-step RK4 loop (``_integrate``) integrates every path: geodesics
here, and through ``_along`` parallel transport and the affine-coordinate
and Massieu systems of ``structure``.  Traces record the sampled curve; a
geodesic that leaves the field's domain is truncated and flagged with
``domain_exit`` instead of raising.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import ModelDefinition, Tolerances, as_coords
from .errors import DomainError, NotFlat, NumericalFailure
from .geometry import ConnectionField, connection_field

DEFAULT_STEP_FRACTION = 1e-3
MAX_GEODESIC_STEPS = 100_000  # 100 times the default path
FIELD_SPOT_CHECKS = 3


@dataclass
class Trace:
    """Sampled curve output: (t, theta(t)) rows plus optional vectors."""

    kind: str
    times: np.ndarray
    points: np.ndarray
    vectors: Optional[np.ndarray] = None
    flags: tuple = ()
    metadata: dict = field(default_factory=dict)

    @property
    def end_point(self) -> np.ndarray:
        return self.points[-1]

    @property
    def end_vector(self) -> Optional[np.ndarray]:
        return None if self.vectors is None else self.vectors[-1]


def _rk4(state, rhs, t, h):
    k1 = rhs(t, state)
    k2 = rhs(t + 0.5 * h, state + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, state + 0.5 * h * k2)
    k4 = rhs(t + h, state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate(f, y, t_end, steps):
    """Fixed-step RK4 for dy/dt = f(t, y) from t = 0; yields (t, y) per step."""
    h = t_end / steps
    for k in range(steps):
        y = _rk4(y, f, k * h, h)
        yield (k + 1) * h, y


def _along(rhs, state, waypoints, steps):
    """Integrate a state along a piecewise-linear chart path.

    On each segment ``rhs(point, delta, state)`` is d state/ds at
    ``point = start + s * delta``, s in [0, 1].  Zero-length segments are
    skipped.  Returns the samples (seg + s, point, state), initial one first.
    """
    samples = [(0.0, waypoints[0], state)]
    for seg in range(len(waypoints) - 1):
        start = waypoints[seg]
        delta = waypoints[seg + 1] - start
        if not np.any(delta):
            continue

        def f(s, y):
            return rhs(start + s * delta, delta, y)

        for s, state in _integrate(f, state, 1.0, steps):
            samples.append((seg + s, start + s * delta, state))
    return samples


def _l_path(start, stop):
    """Axis-aligned detour: change one differing coordinate at a time."""
    corners = [np.array(start, dtype=float)]
    for axis in range(start.size):
        if stop[axis] != start[axis]:
            corner = corners[-1].copy()
            corner[axis] = stop[axis]
            corners.append(corner)
    return corners


def geodesic(
    model: ModelDefinition,
    theta0,
    v0,
    t_end: float,
    step: Optional[float] = None,
    connection: Optional[ConnectionField] = None,
) -> Trace:
    """Integrate d^2 theta/dt^2 = -omega^k_ij dtheta^i dtheta^j.

    The path is not known in advance, so every accepted step is checked
    against the field domain; leaving it truncates the trace.  A step that
    asks for more than ``MAX_GEODESIC_STEPS`` steps raises NumericalFailure
    before any field evaluation.
    """
    coords = as_coords(theta0)
    velocity = as_coords(v0)
    conn = connection or connection_field(model)
    if not conn.contains(coords):
        raise DomainError(f"geodesic start {coords.tolist()} outside field domain")
    h = step if step is not None else DEFAULT_STEP_FRACTION * abs(t_end)
    if not h > 0:
        raise NumericalFailure("geodesic needs a positive step")
    span = abs(t_end) / h  # a float first: a tiny step must not overflow int()
    if not span <= MAX_GEODESIC_STEPS:
        raise NumericalFailure(
            f"geodesic step {h:.3g} over t = {t_end:g} needs {span:.3g} steps, "
            f"more than the budget of {MAX_GEODESIC_STEPS}"
        )
    steps = max(int(round(span)), 1)
    n = coords.size

    def rhs(_, state):
        pos, vel = state[:n], state[n:]
        omega = conn(pos)
        acc = -np.einsum("kij,i,j->k", omega, vel, vel)
        return np.concatenate([vel, acc])

    times = [0.0]
    states = [np.concatenate([coords, velocity])]
    flags = []
    try:
        for t, state in _integrate(rhs, states[0], t_end, steps):
            if not conn.contains(state[:n]):
                flags.append("domain_exit")
                break
            times.append(t)
            states.append(state)
    except DomainError:  # an RK4 stage left the chart
        flags.append("domain_exit")
    states = np.array(states)
    return Trace(
        kind="geodesic",
        times=np.array(times),
        points=states[:, :n],
        vectors=states[:, n:],
        flags=tuple(flags),
        metadata={"field": conn.provenance},
    )


def _as_waypoints(curve) -> np.ndarray:
    if isinstance(curve, Trace):
        return np.asarray(curve.points, dtype=float)
    return np.array([as_coords(point) for point in curve], dtype=float)


def parallel_transport(
    model: ModelDefinition,
    curve,
    v0,
    steps_per_segment: int = 200,
    connection: Optional[ConnectionField] = None,
) -> Trace:
    """Transport a vector along a piecewise-linear chart path.

    Solves dv^j/dt + omega^j_ik dtheta^i/dt v^k = 0 segment by segment.
    The field domain is a box, so a path whose way points lie inside it
    stays inside; a way point outside it raises DomainError up front.
    """
    waypoints = _as_waypoints(curve)
    if waypoints.shape[0] < 2:
        raise NumericalFailure("transport needs at least two way points")
    conn = connection or connection_field(model)
    for point in waypoints:
        if not conn.contains(point):
            raise DomainError(
                f"transport way point {point.tolist()} outside field domain {conn.domain}"
            )

    def rhs(point, delta, vector):
        omega = conn(point)
        return -np.einsum("jik,i,k->j", omega, delta, vector)

    times, points, vectors = zip(*_along(rhs, as_coords(v0), waypoints, steps_per_segment))
    return Trace(
        kind="parallel_transport",
        times=np.array(times),
        points=np.array(points),
        vectors=np.array(vectors),
        metadata={"field": conn.provenance},
    )


def covariant_constant_field(
    model: ModelDefinition,
    theta0,
    v0,
    grid,
    connection: Optional[ConnectionField] = None,
    steps_per_segment: int = 200,
    tol: Tolerances = Tolerances(),
) -> Trace:
    """Extend a vector to a grid by straight-path parallel transport.

    A few grid points are re-transported along an axis-aligned detour;
    disagreement beyond ``tol.flat`` means the connection is not flat and
    no covariant-constant extension exists.
    """
    base = as_coords(theta0)
    seed = as_coords(v0)
    conn = connection or connection_field(model)
    grid_points = [as_coords(point) for point in grid]
    vectors = []
    for target in grid_points:
        if np.allclose(target, base):
            vectors.append(seed.copy())
            continue
        trace = parallel_transport(
            model, [base, target], seed, connection=conn,
            steps_per_segment=steps_per_segment,
        )
        vectors.append(trace.end_vector)
    scale = max(float(np.max(np.abs(vectors))), 1.0)
    worst = 0.0
    count = min(FIELD_SPOT_CHECKS, len(grid_points))
    picks = np.linspace(0, len(grid_points) - 1, count).astype(int)
    for index in picks:
        target = grid_points[index]
        if np.allclose(target, base):
            continue
        detour = parallel_transport(
            model, _l_path(base, target), seed, connection=conn,
            steps_per_segment=steps_per_segment,
        )
        gap = float(np.max(np.abs(detour.end_vector - vectors[index]))) / scale
        worst = max(worst, gap)
    if worst > tol.flat:
        raise NotFlat(
            f"two transport paths disagree by {worst:.3g}; no covariant-constant "
            f"field exists for {model.name}",
            residual=worst,
        )
    return Trace(
        kind="covariant_field",
        times=np.arange(len(grid_points), dtype=float),
        points=np.array(grid_points),
        vectors=np.array(vectors),
        metadata={"field": conn.provenance, "path_residual": worst},
    )
