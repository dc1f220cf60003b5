"""Geodesics, parallel transport and covariant-constant fields.

Fixed-step RK4 on the connection field.  Traces record the sampled
curve; a trace that leaves the field's domain is truncated and flagged
with ``domain_exit`` instead of raising.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import ModelDefinition, as_coords
from .errors import DomainError, NotFlat, NumericalFailure
from .geometry import ConnectionField, connection_field

DEFAULT_STEP_FRACTION = 1e-3
FIELD_SPOT_TOL = 1e-3


@dataclass
class Trace:
    """Sampled curve output: (t, theta(t)) rows plus optional vectors."""

    kind: str
    times: np.ndarray
    points: np.ndarray
    vectors: Optional[np.ndarray] = None
    step: float = 0.0
    order: int = 4
    flags: tuple = ()
    metadata: dict = field(default_factory=dict)

    @property
    def end_point(self) -> np.ndarray:
        return self.points[-1]

    @property
    def end_vector(self) -> Optional[np.ndarray]:
        return None if self.vectors is None else self.vectors[-1]


def _resolve_field(model: ModelDefinition, conn, source: str) -> ConnectionField:
    if conn is not None:
        return conn
    return connection_field(model, source=source)


def _rk4(state, rhs, t, h):
    k1 = rhs(t, state)
    k2 = rhs(t + 0.5 * h, state + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, state + 0.5 * h * k2)
    k4 = rhs(t + h, state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
    source: str = "fibre",
) -> Trace:
    """Integrate d^2 theta/dt^2 = -omega^k_ij dtheta^i dtheta^j."""
    coords = as_coords(theta0)
    velocity = as_coords(v0)
    conn = _resolve_field(model, connection, source)
    if not conn.contains(coords):
        raise NumericalFailure(f"geodesic start {coords.tolist()} outside field domain")
    h = step if step is not None else DEFAULT_STEP_FRACTION * abs(t_end)
    if not h > 0:
        raise NumericalFailure("geodesic needs a positive step")
    n = coords.size

    def rhs(_, state):
        pos, vel = state[:n], state[n:]
        omega = conn(pos)
        acc = -np.einsum("kij,i,j->k", omega, vel, vel)
        return np.concatenate([vel, acc])

    steps = max(int(round(abs(t_end) / h)), 1)
    h = t_end / steps
    times = [0.0]
    points = [coords.copy()]
    vectors = [velocity.copy()]
    state = np.concatenate([coords, velocity])
    flags = []
    for k in range(steps):
        try:
            trial = _rk4(state, rhs, k * h, h)
        except DomainError:  # an RK4 stage left the chart
            flags.append("domain_exit")
            break
        if not conn.contains(trial[:n]):
            flags.append("domain_exit")
            break
        state = trial
        times.append((k + 1) * h)
        points.append(state[:n].copy())
        vectors.append(state[n:].copy())
    return Trace(
        kind="geodesic",
        times=np.array(times),
        points=np.array(points),
        vectors=np.array(vectors),
        step=h,
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
    source: str = "fibre",
) -> Trace:
    """Transport a vector along a piecewise-linear chart path.

    Solves dv^j/dt + omega^j_ik dtheta^i/dt v^k = 0 segment by segment.
    """
    waypoints = _as_waypoints(curve)
    if waypoints.shape[0] < 2:
        raise NumericalFailure("transport needs at least two way points")
    conn = _resolve_field(model, connection, source)
    vector = as_coords(v0).copy()
    n = waypoints.shape[1]
    times = [0.0]
    points = [waypoints[0].copy()]
    vectors = [vector.copy()]
    flags = []
    for seg in range(waypoints.shape[0] - 1):
        start, stop = waypoints[seg], waypoints[seg + 1]
        delta = stop - start

        def rhs(s, vec):
            omega = conn(start + s * delta)
            return -np.einsum("jik,i,k->j", omega, delta, vec)

        h = 1.0 / steps_per_segment
        exited = False
        for k in range(steps_per_segment):
            if not conn.contains(start + (k + 1) * h * delta):
                flags.append("domain_exit")
                exited = True
                break
            try:
                vector = _rk4(vector, rhs, k * h, h)
            except DomainError:
                flags.append("domain_exit")
                exited = True
                break
            times.append(seg + (k + 1) * h)
            points.append(start + (k + 1) * h * delta)
            vectors.append(vector.copy())
        if exited:
            break
    return Trace(
        kind="parallel_transport",
        times=np.array(times),
        points=np.array(points),
        vectors=np.array(vectors),
        step=1.0 / steps_per_segment,
        flags=tuple(flags),
        metadata={"field": conn.provenance},
    )


def covariant_constant_field(
    model: ModelDefinition,
    theta0,
    v0,
    grid,
    spot_checks: int = 3,
    spot_tol: float = FIELD_SPOT_TOL,
    connection: Optional[ConnectionField] = None,
    source: str = "fibre",
    steps_per_segment: int = 200,
) -> Trace:
    """Extend a vector to a grid by straight-path parallel transport.

    A few grid points are re-transported along an axis-aligned detour;
    disagreement beyond ``spot_tol`` means the connection is not flat and
    no covariant-constant extension exists.
    """
    base = as_coords(theta0)
    seed = as_coords(v0)
    conn = _resolve_field(model, connection, source)
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
        if trace.flags:
            raise NumericalFailure(
                f"transport to {target.tolist()} left the field domain"
            )
        vectors.append(trace.end_vector)
    scale = max(float(np.max(np.abs(vectors))), 1.0)
    worst = 0.0
    count = min(spot_checks, len(grid_points))
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
    if worst > spot_tol:
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
        step=0.0,
        flags=(),
        metadata={"field": conn.provenance, "path_residual": worst},
    )
