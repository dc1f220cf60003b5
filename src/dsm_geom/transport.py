"""Geodesics, parallel transport and covariant-constant fields.

Every path integrates the connection field it is given and never sees a
model: the caller builds the field once, and the field carries its domain
and the tolerances it was built with (``ConnectionField.tol``), so its
condition-4 gate and the level agreement of a path solve (``tol.flat``)
come from one ``Tolerances``.  A geodesic's route is not known in
advance, so ``geodesic`` takes fixed RK4 steps (``_rk4``) that call its
field at every stage.  Parallel transport and the affine-coordinate and
Massieu systems of ``structure`` are linear in their state along a known
piecewise-linear path, so ``_along`` samples their position-only
coefficients once per segment at nested Chebyshev-Lobatto nodes and
solves the system at those nodes in integral form, one linear solve per
level (spectral integration: Greengard, SIAM J. Numer. Anal. 28, 1991); a
segment that does not settle is halved.  A covariant-constant field,
affine coordinates and a Massieu potential exist only on a flat
connection, so one check judges all three: ``_two_paths`` solves to each
stop along the straight path and an axis-aligned detour, a rectangle
round a stop one coordinate away, and returns their gap unjudged; a gap
above the check's tolerance is the caller's ``fail`` verdict, not an
error.  Traces record the sampled curve; a geodesic that leaves the
field's domain is truncated and flagged with ``domain_exit`` instead of
raising.  A path raises only when it cannot compute a value.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np

from .core import finite_real, in_open_box, require_point, require_points, require_tangent
from .errors import DomainError, NumericalFailure
from .geometry import ConnectionField, _relative_gap

DEFAULT_STEP_FRACTION = 1e-3
MAX_GEODESIC_STEPS = 100_000  # 100 times the default path
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
    """Sampled curve output: (t, theta(t), vector(t)) rows.

    ``path_residual`` is a covariant-constant field's two-path gap.
    """

    times: np.ndarray
    points: np.ndarray
    vectors: np.ndarray
    flags: tuple = ()
    path_residual: Optional[float] = None

    @property
    def end_point(self) -> np.ndarray:
        return self.points[-1]

    @property
    def end_vector(self) -> np.ndarray:
        return self.vectors[-1]


def _rk4(state, rhs, t, h):
    k1 = rhs(t, state)
    k2 = rhs(t + 0.5 * h, state + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, state + 0.5 * h * k2)
    k4 = rhs(t + h, state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
            change = _relative_gap(previous, end)
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


def _l_path(start, stop, domain):
    """Axis-aligned detour: change one differing coordinate at a time.

    Where that is the straight path (one coordinate differs, of two or
    more), first step along the next axis by the stop's offset, or by half
    the room on that axis's roomier side of the open ``domain`` box if less,
    and step back at the end: a rectangle.  Elsewhere the step is zero, and
    ``_along`` skips the zero-length legs.
    """
    differing = np.flatnonzero(stop != start)
    side = np.zeros(start.size)
    if differing.size == 1 and start.size > 1:
        axis, across = differing[0], (differing[0] + 1) % start.size
        below, above = start[across] - domain[across][0], domain[across][1] - start[across]
        width = min(abs(stop[axis] - start[axis]), 0.5 * max(below, above))
        side[across] = width if above >= below else -width
    corners = [start, start + side]
    for axis in differing:
        corner = corners[-1].copy()
        corner[axis] = stop[axis]
        corners.append(corner)
    return corners + [stop]


def _transport_rhs(omega, delta, vector):
    """dv/ds of parallel transport on a segment with tangent delta."""
    return -np.einsum("jik,i,k->j", omega, delta, vector)


def _two_paths(rhs, local, seed, reference, stops, domain, tol, compared=slice(None)):
    """Solve a linear path system from ``reference`` to each stop along the
    straight path and along the detour ``_l_path`` in the ``domain`` box,
    each to ``tol``.

    Returns each straight path's end state and each stop's two-path gap
    over the ``compared`` slice of the state, relative to the straight
    path's (scale at least 1).
    """
    ends, gaps = [], []
    for stop in stops:
        straight = _along(rhs, local, seed, [reference, stop], tol)[-1][2]
        detour = _along(rhs, local, seed, _l_path(reference, stop, domain), tol)[-1][2]
        ends.append(straight)
        gaps.append(_relative_gap(detour[compared], straight[compared]))
    return ends, gaps


def geodesic(
    connection: ConnectionField,
    theta0,
    v0,
    t_end: float,
    step: Optional[float] = None,
) -> Trace:
    """Integrate d^2 theta/dt^2 = -omega^k_ij dtheta^i dtheta^j.

    The path is not known in advance, so every RK4 stage and accepted step is
    checked against the field domain; leaving it truncates the trace.  A t_end or
    step that is not a finite number, a step <= 0, or a step that asks for more than
    ``MAX_GEODESIC_STEPS`` steps raises DomainError before any field
    evaluation.  A t_end of 0 with a valid step is the one-sample trace of
    the start, with no field evaluation.
    """
    coords = require_point(theta0, connection.domain, "geodesic start", "field")
    velocity = require_tangent(v0, coords, "geodesic velocity", "the start")
    h = DEFAULT_STEP_FRACTION * abs(t_end) if step is None and finite_real(t_end) else step
    if not (finite_real(t_end) and finite_real(h) and h > 0):
        raise DomainError(
            f"geodesic needs a finite t_end and a finite step > 0, got t_end {t_end} and step {h}"
        )
    span = abs(t_end) / h  # a float first: a tiny step must not overflow int()
    if not span <= MAX_GEODESIC_STEPS:
        raise DomainError(
            f"geodesic step {h:.3g} over t = {t_end:g} needs {span:.3g} steps, "
            f"more than the budget of {MAX_GEODESIC_STEPS}"
        )
    steps = max(int(round(span)), 1) if t_end else 0  # t_end 0: the start alone
    n = coords.size

    def rhs(_, state):
        point, vel = state[:n], state[n:]
        if not in_open_box(point, connection.domain):  # refused before any field sees it
            raise DomainError("geodesic stage outside the field domain")
        # einsum sums the terms of a strided omega in another order
        omega = np.ascontiguousarray(connection(point))
        return np.concatenate([vel, -np.einsum("kij,i,j->k", omega, vel, vel)])

    state = np.concatenate([coords, velocity])
    times, states, flags = [0.0], [state], []
    try:
        for k in range(steps):
            dt = t_end / steps
            state = _rk4(state, rhs, k * dt, dt)
            if not in_open_box(state[:n], connection.domain):
                flags.append("domain_exit")
                break
            times.append((k + 1) * dt)
            states.append(state)
    except DomainError:  # an RK4 stage left the field's box
        flags.append("domain_exit")
    states = np.array(states)
    return Trace(
        times=np.array(times),
        points=states[:, :n],
        vectors=states[:, n:],
        flags=tuple(flags),
    )


def parallel_transport(connection: ConnectionField, curve, v0) -> Trace:
    """Transport a vector along a piecewise-linear chart path.

    Solves dv^j/dt + omega^j_ik dtheta^i/dt v^k = 0 segment by segment,
    to well within the field's ``tol.flat`` (the two-path check of
    covariant fields).
    The field domain is a box, so a path whose way points lie inside it
    stays inside; a way point outside it, or fewer than two, raises
    DomainError up front.
    """
    waypoints = require_points(curve, connection.domain, "transport way point", "field")
    if len(waypoints) < 2:
        raise DomainError("transport needs at least two way points, got 1")
    vector = require_tangent(v0, waypoints[0], "transported vector", "the path")
    samples = _along(_transport_rhs, connection, vector, waypoints, connection.tol.flat)
    times, points, vectors = zip(*samples)
    return Trace(times=np.array(times), points=np.array(points), vectors=np.array(vectors))


def covariant_constant_field(connection: ConnectionField, theta0, v0, grid) -> Trace:
    """Extend a vector to a grid by straight-path parallel transport.

    Every grid point is also reached along an axis-aligned detour, and the
    worst two-path gap is returned as ``path_residual``; one beyond the
    field's ``tol.flat`` means the connection is not flat and no
    covariant-constant extension exists.  The base, the seed and every
    grid point are checked before the first transport.
    """
    domain = connection.domain
    base = require_point(theta0, domain, "field base", "field")
    seed = require_tangent(v0, base, "field seed", "the base")
    grid_points = require_points(grid, domain, "field grid point", "field")
    vectors, gaps = _two_paths(
        _transport_rhs, connection, seed, base, grid_points, domain, connection.tol.flat
    )
    return Trace(
        times=np.arange(len(grid_points), dtype=float),
        points=np.array(grid_points),
        vectors=np.array(vectors),
        path_residual=float(np.max(gaps)),  # np.max keeps a NaN, which max() may drop
    )
