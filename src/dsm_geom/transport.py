"""Geodesics, parallel transport and covariant-constant fields.

A fixed-step RK4 loop (``_integrate``) integrates every path.  A geodesic
calls its field at every RK4 stage: its route is not known in advance.
Parallel transport and the affine-coordinate and Massieu systems of
``structure`` are linear in their state along a known piecewise-linear
path, so ``_along`` samples their position-only coefficients once per
segment at nested Chebyshev-Lobatto nodes and runs the RK4 loop on the
barycentric interpolant, which makes no further field call (Berrut and
Trefethen, SIAM Review 46, 2004).  Traces record the sampled curve; a
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
# RK4 steps on each segment's interpolant.  The level check does not see
# RK4's own error, which this count keeps near 4e-9 on gaussian-kl affine
# coordinates (64 steps: 2e-8); the steps cost no field call.
PATH_STEPS = 96
PATH_NODES = (9, 17, 33, 65)  # nested Chebyshev-Lobatto levels on a segment
LEVEL_AGREEMENT = 1e-3  # share of the consuming check's tolerance

# the finest level's nodes in s in [0, 1]; a level of m nodes takes every
# (_FINEST / (m - 1))-th, so its nodes are exactly nodes of every finer level.
# The sine form puts the ends at exactly 0 and 1 and the middle at 0.5.
_FINEST = PATH_NODES[-1] - 1
_NODES = 0.5 - 0.5 * np.sin(np.pi * (_FINEST - 2 * np.arange(_FINEST + 1)) / (2 * _FINEST))


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


def _interpolate(nodes, values, points):
    """Barycentric Lagrange interpolation of Chebyshev-Lobatto samples.

    ``values[j]`` is the sample at ``nodes[j]``; the weights are (-1)^j,
    halved at the two ends.  At a node the sample itself is returned.
    """
    weights = np.where(np.arange(nodes.size) % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    gaps = points[:, None] - nodes[None, :]
    rows, cols = np.nonzero(gaps == 0.0)
    gaps[rows, cols] = 1.0  # those rows are overwritten below
    ratios = weights / gaps
    flat = values.reshape(nodes.size, -1)
    out = (ratios @ flat) / ratios.sum(axis=1)[:, None]
    out[rows] = flat[cols]
    return out.reshape((points.size,) + values.shape[1:])


def _segment(rhs, local, start, delta, state, count, sampled, steps=PATH_STEPS):
    """RK4 over one segment on the interpolant of ``count`` Lobatto nodes.

    ``sampled`` maps an index into ``_NODES`` to ``local`` at that node;
    only nodes missing from it are evaluated (and added).  The interpolant
    is tabulated at the RK4 stage points s = i / (2 steps) up front.
    Returns the (s, state) pairs of the RK4 steps.
    """
    stride = _FINEST // (count - 1)
    picks = range(0, _FINEST + 1, stride)
    for j in picks:
        if j not in sampled:
            sampled[j] = local(start + _NODES[j] * delta)
    stages = 2 * steps
    table = _interpolate(
        _NODES[::stride],
        np.array([sampled[j] for j in picks]),
        np.arange(stages + 1) / stages,
    )

    def f(s, y):
        return rhs(table[round(s * stages)], delta, y)

    return list(_integrate(f, state, 1.0, steps))


def _along(rhs, local, state, waypoints, tol):
    """Integrate a state along a piecewise-linear chart path.

    On each segment ``point = start + s * delta``, s in [0, 1], and
    d state/ds = ``rhs(local(point), delta, state)``: ``local`` is the
    expensive position-only part, ``rhs`` the cheap linear one.  ``local``
    is sampled at nested Lobatto levels, each node once, until the end
    states of two successive levels differ by at most ``LEVEL_AGREEMENT *
    tol`` (relative to the end state, scale at least 1); ``tol`` is that of
    the check the result feeds.  A segment that does not settle within
    ``PATH_NODES[-1]`` nodes raises NumericalFailure.  Zero-length segments
    are skipped.  Returns the samples (seg + s, point, state), initial one
    first.
    """
    limit = LEVEL_AGREEMENT * tol
    samples = [(0.0, waypoints[0], state)]
    for seg in range(len(waypoints) - 1):
        start = waypoints[seg]
        delta = waypoints[seg + 1] - start
        if not np.any(delta):
            continue
        sampled, previous = {}, None
        for count in PATH_NODES:
            run = _segment(rhs, local, start, delta, state, count, sampled)
            end = run[-1][1]
            if previous is not None:
                change = float(np.max(np.abs(end - previous))) / max(
                    float(np.max(np.abs(end))), 1.0
                )
                if change <= limit:
                    break
            previous = end
        else:
            raise NumericalFailure(
                f"path segment {start.tolist()} -> {waypoints[seg + 1].tolist()} did not "
                f"settle within {PATH_NODES[-1]} Chebyshev nodes: the last two levels "
                f"differ by {change:.3g}, more than {limit:.3g}"
            )
        state = end
        samples.extend((seg + s, start + s * delta, y) for s, y in run)
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
    connection: Optional[ConnectionField] = None,
    tol: Tolerances = Tolerances(),
) -> Trace:
    """Transport a vector along a piecewise-linear chart path.

    Solves dv^j/dt + omega^j_ik dtheta^i/dt v^k = 0 segment by segment,
    to well within ``tol.flat`` (the two-path check of covariant fields).
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

    def rhs(omega, delta, vector):
        return -np.einsum("jik,i,k->j", omega, delta, vector)

    times, points, vectors = zip(*_along(rhs, conn, as_coords(v0), waypoints, tol.flat))
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
        trace = parallel_transport(model, [base, target], seed, connection=conn, tol=tol)
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
            model, _l_path(base, target), seed, connection=conn, tol=tol
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
