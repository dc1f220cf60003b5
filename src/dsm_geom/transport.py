"""Geodesics, parallel transport and covariant-constant fields.

A geodesic's route is not known in advance, so a fixed-step RK4 loop
(``_integrate``) calls its field at every stage.  Parallel transport and
the affine-coordinate and Massieu systems of ``structure`` are linear in
their state along a known piecewise-linear path, so ``_along`` samples
their position-only coefficients once per segment at nested
Chebyshev-Lobatto nodes and solves the system at those nodes in integral
form, one linear solve per level (spectral integration: Greengard, SIAM
J. Numer. Anal. 28, 1991); a segment that does not settle is halved.
Traces record the sampled curve; a geodesic that leaves the field's
domain is truncated and flagged with ``domain_exit`` instead of raising.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Optional

import numpy as np

from .core import ModelDefinition, Tolerances, as_coords
from .errors import DomainError, NotFlat, NumericalFailure
from .geometry import ConnectionField, connection_field

DEFAULT_STEP_FRACTION = 1e-3
MAX_GEODESIC_STEPS = 100_000  # 100 times the default path
FIELD_SPOT_CHECKS = 3
PATH_NODES = (9, 17, 33, 65)  # nested Chebyshev-Lobatto levels on a segment
LEVEL_AGREEMENT = 1e-3  # share of the consuming check's tolerance
MAX_HALVINGS = 6  # a segment that has not settled is split down to 1/64 of it

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


@cache
def _integration_matrix(count):
    """Q[i, j] = integral from 0 to s_i of l_j(s) ds on a level's nodes.

    l_j is the Lagrange polynomial of node j among the ``count`` Lobatto
    nodes in s in [0, 1]; the last row holds the Clenshaw-Curtis weights.
    """
    from numpy.polynomial import chebyshev  # ~5 ms to import: only path solves need it

    x = 2.0 * _NODES[:: _FINEST // (count - 1)] - 1.0
    lagrange = np.linalg.inv(chebyshev.chebvander(x, count - 1))  # column j: l_j
    return chebyshev.chebval(x, chebyshev.chebint(lagrange, lbnd=-1.0, scl=0.5)).T


def _segment(rhs, local, start, delta, state, count, sampled):
    """Solve one segment at its ``count`` Lobatto nodes.

    ``sampled`` maps an index into ``_NODES`` to ``local`` at that node;
    only nodes missing from it are evaluated (and added).  ``rhs`` is
    affine in the state, A_j y + b_j at node j, so the node states of the
    integral form Y_i = state + sum_j Q[i, j] (A_j Y_j + b_j), the Lobatto
    IIIA method of ``count`` stages, follow from one linear solve.  Returns
    the (s, state) pairs at the nodes after s = 0.
    """
    stride = _FINEST // (count - 1)
    picks = range(0, _FINEST + 1, stride)
    for j in picks:
        if j not in sampled:
            sampled[j] = local(start + _NODES[j] * delta)
    first, *rest = (sampled[j] for j in picks)
    size = state.size
    offsets = np.array([rhs(c, delta, np.zeros(size)) for c in rest])
    # columns[j, k] = A_j e_k, so A_j = columns[j].T
    columns = np.array([[rhs(c, delta, unit) for unit in np.eye(size)] for c in rest])
    columns -= offsets[:, None, :]
    q = _integration_matrix(count)
    coupling = np.einsum("ij,jba->iajb", q[1:, 1:], columns).reshape(
        (count - 1) * size, (count - 1) * size
    )
    load = state + np.outer(q[1:, 0], rhs(first, delta, state)) + q[1:, 1:] @ offsets
    nodes = np.linalg.solve(np.eye(coupling.shape[0]) - coupling, load.ravel())
    return list(zip(_NODES[::stride][1:], nodes.reshape(count - 1, size)))


def _settle(rhs, local, start, delta, state, limit):
    """Solve one straight piece at the nested levels of ``PATH_NODES``.

    Stops at the first level whose end state differs from the previous
    level's by at most ``limit`` (relative to the end state, scale at least
    1).  Returns that level's (s, state) pairs, or the finest level's, and
    the last difference.
    """
    sampled, previous = {}, None
    for count in PATH_NODES:
        run = _segment(rhs, local, start, delta, state, count, sampled)
        end = run[-1][1]
        if previous is not None:
            change = float(np.max(np.abs(end - previous))) / max(float(np.max(np.abs(end))), 1.0)
            if change <= limit:
                break
        previous = end
    return run, change


def _along(rhs, local, state, waypoints, tol):
    """Integrate a state along a piecewise-linear chart path.

    On each segment ``point = start + s * delta``, s in [0, 1], and
    d state/ds = ``rhs(local(point), delta, state)``: ``local`` is the
    expensive position-only part, ``rhs`` the cheap one, affine in the
    state.  ``local`` is sampled at nested Lobatto levels, each node once,
    until the end states of two successive levels differ by at most
    ``LEVEL_AGREEMENT * tol`` (``_settle``); ``tol`` is that of the check
    the result feeds.  A segment that does not settle within
    ``PATH_NODES[-1]`` nodes is halved, and each half settled in turn from
    the state the one before it reached, down to ``MAX_HALVINGS`` halvings;
    the first piece that does not settle at that depth raises
    NumericalFailure.  Zero-length segments are skipped.  Returns the
    samples (seg + s, point, state) at the accepted levels' nodes, initial
    one first.
    """
    limit = LEVEL_AGREEMENT * tol
    samples = [(0.0, waypoints[0], state)]
    for seg in range(len(waypoints) - 1):
        start = waypoints[seg]
        delta = waypoints[seg + 1] - start
        if not np.any(delta):
            continue
        # pieces still to solve, the next one last; a piece (begin, step, s0,
        # width, halvings) covers s in [s0, s0 + width] of the segment
        pieces = [(start, delta, 0.0, 1.0, 0)]
        while pieces:
            begin, step, s0, width, halvings = pieces.pop()
            run, change = _settle(rhs, local, begin, step, state, limit)
            if change > limit:
                if halvings == MAX_HALVINGS:
                    raise NumericalFailure(
                        f"path segment {start.tolist()} -> {waypoints[seg + 1].tolist()} did "
                        f"not settle within {PATH_NODES[-1]} Chebyshev nodes on its piece "
                        f"s in [{s0:.6g}, {s0 + width:.6g}] after {MAX_HALVINGS} halvings: the "
                        f"last two levels differ by {change:.3g}, more than {limit:.3g}"
                    )
                half = 0.5 * step
                pieces.append((begin + half, half, s0 + 0.5 * width, 0.5 * width, halvings + 1))
                pieces.append((begin, half, s0, 0.5 * width, halvings + 1))
                continue
            state = run[-1][1]
            samples.extend((seg + s0 + width * s, begin + s * step, y) for s, y in run)
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
    if velocity.size != coords.size:
        raise DomainError(
            f"geodesic velocity {velocity.tolist()} has {velocity.size} components, "
            f"the start {coords.size}"
        )
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
