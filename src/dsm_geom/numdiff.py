"""Finite-difference engine for chart derivatives of scalars and tensors.

Every stencil takes its step from ``_step`` (``_steps`` over an array):
``REL_STEP`` * max(|x|, 1), shrunk so 2.5 steps fit before the nearer bound
of the open box ``domain`` (a chart's ``domain`` tuple, or ``None``), never
below ``ABS_STEP_FLOOR``.
First derivatives are central differences with one Richardson level, or a
one-sided 2nd-order stencil pointing away from the bound where even 2.5
floor steps do not fit (a Hessian is refused there): no stencil leaves the box.
Each first-derivative stencil checks its two step sizes against each
other; ``fd_hessian`` extrapolates its two levels without comparing them.

``fd_jacobians`` reads the stencils of many centres over every axis as one
list of points, cut into one segment per centre, so a field that can
evaluate a list of points at once does.  A stencil is data (its points,
whether it is one-sided, its step and its sign), so each kind's formula and
its agreement check run once over every stencil of that kind, and each
centre gets its Jacobian or the first failure of its own read order.
``fd_jacobian`` and ``fd_field_derivative`` are its one-centre cases.
"""
from __future__ import annotations

from functools import partial
from itertools import islice
from typing import Callable, Optional

import numpy as np

from .core import as_coords
from .errors import NumericalFailure

REL_STEP = 1e-4
ABS_STEP_FLOOR = 1e-7
RICHARDSON_AGREE_TOL = 1e-3


def _room(coords, axis, domain):
    """Distances from coords to the lower / upper bound along one axis (inf if open)."""
    if domain is None:
        return np.inf, np.inf
    lo, hi = domain[axis]
    return coords[axis] - lo, hi - coords[axis]


def _step(coords, axis, domain) -> float:
    h = REL_STEP * max(abs(float(coords[axis])), 1.0)
    return max(min(h, min(_room(coords, axis, domain)) / 2.5), ABS_STEP_FLOOR)


def _steps(x, bounds):
    """The step h along each axis at each row of ``x``, the distance to the
    nearer of ``bounds`` (one (lo, hi) row per axis, or None for an open
    box) there, and the sign of the direction away from it: ``_step`` and
    ``_room`` over an array."""
    h = np.abs(x)
    np.maximum(h, 1.0, out=h)
    h *= REL_STEP
    if bounds is None:
        np.maximum(h, ABS_STEP_FLOOR, out=h)
        return h, np.full(x.shape, np.inf), np.ones(x.shape)
    below, above = x - bounds[:, 0], bounds[:, 1] - x
    room = np.minimum(below, above)
    np.minimum(h, room / 2.5, out=h)
    np.maximum(h, ABS_STEP_FLOOR, out=h)
    return h, room, np.where(above >= below, 1.0, -1.0)


def _shifted(coords, axis, amount):
    out = np.array(coords, dtype=float)
    out[axis] += amount
    return out


def fd_gradient(f: Callable, theta, domain: Optional[tuple] = None) -> np.ndarray:
    """Gradient of a scalar chart field: the Jacobian of a rank-0 field."""
    return fd_jacobian(f, theta, domain)


def fd_hessian(f: Callable, theta, domain: Optional[tuple] = None) -> np.ndarray:
    """Second-derivative matrix of a scalar chart field, exactly symmetric:
    each mixed entry is computed once and written to both halves."""
    coords = as_coords(theta)
    n = coords.size
    if any(min(_room(coords, i, domain)) <= 2.5 * ABS_STEP_FLOOR for i in range(n)):
        raise NumericalFailure(f"no Hessian stencil fits inside the chart at {coords.tolist()}")

    f0 = f(coords)  # the centre of every level's stencil

    def hessian_with(h_vec):
        hess = np.empty((n, n))
        for i in range(n):
            hi = h_vec[i]
            hess[i, i] = (
                f(_shifted(coords, i, hi)) - 2.0 * f0 + f(_shifted(coords, i, -hi))
            ) / hi**2
            for j in range(i + 1, n):
                hj = h_vec[j]
                pp = f(_shifted(_shifted(coords, i, hi), j, hj))
                pm = f(_shifted(_shifted(coords, i, hi), j, -hj))
                mp = f(_shifted(_shifted(coords, i, -hi), j, hj))
                mm = f(_shifted(_shifted(coords, i, -hi), j, -hj))
                hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * hi * hj)
        return hess

    steps = np.array([_step(coords, i, domain) for i in range(n)])
    coarse = hessian_with(steps)
    fine = hessian_with(0.5 * steps)
    return (4.0 * fine - coarse) / 3.0


# each stencil's steps along its axis, in units of h, in the order its formula reads them
_CENTRAL_STEPS = np.array([1.0, -1.0, 0.5, -0.5])
_ONE_SIDED_STEPS = np.array([0.0, 1.0, 2.0, 0.5])


def _stencils(centres, axes, domain, head):
    """The FD stencils of each row of ``centres`` along each of ``axes``, as
    data: one segment of points per centre (the centre ``head`` times, then
    each axis's stencil in the order its formula reads their values), and
    for each centre and axis whether the stencil is one-sided, its step h
    and its sign.  Each step is added on its own axis only, as ``_shifted``
    adds it, so no other coordinate changes (not even -0.0 to 0.0).

    Central differences at h and h/2 with one Richardson level; where 2.5
    floor steps do not fit before a bound, the 2nd-order one-sided formula
    at h, pointing away from it, checked against the same formula at h/2.
    """
    bounds = None if domain is None else np.array([domain[axis] for axis in axes], dtype=float)
    h, room, sign = _steps(centres[:, axes], bounds)
    one_sided = room <= 2.5 * ABS_STEP_FLOOR
    # (sign * unit) * h, as each step always was; + 0.0 makes the one-sided
    # zero step +0.0 on either side and moves no other step
    units = np.where(one_sided[..., None], sign[..., None] * _ONE_SIDED_STEPS, _CENTRAL_STEPS)
    steps = units * h[..., None] + 0.0
    count, n = centres.shape
    segments = np.repeat(centres, head + 4 * len(axes), axis=0).reshape(count, -1, n)
    for index, axis in enumerate(axes):
        start = head + 4 * index
        segments[:, start : start + 4, axis] += steps[:, index]
    return segments, one_sided.ravel(), h.reshape(-1, 1), sign.reshape(-1, 1)


def _central(values, h, sign):
    at_h, at_minus_h, at_half, at_minus_half = values.swapaxes(0, 1)
    coarse = (at_h - at_minus_h) / (2.0 * h)
    fine = (at_half - at_minus_half) / h
    refined = (4.0 * fine - coarse) / 3.0
    return refined, _gaps(fine, refined)


def _one_sided(values, h, sign):
    at_0, at_h, at_2h, at_half = values.swapaxes(0, 1)
    coarse = sign * (-3.0 * at_0 + 4.0 * at_h - at_2h) / (2.0 * h)
    fine = sign * (-3.0 * at_0 + 4.0 * at_half - at_h) / h
    return coarse, _gaps(fine, coarse)


def _gaps(fine, kept):
    """Each stencil's largest gap between its two levels, relative to their scale."""
    gap = np.maximum.reduce(np.abs(kept - fine), axis=1)
    # floor the scale so vanishing derivatives (minima) don't turn noise
    # into a spurious relative disagreement
    scale = np.maximum.reduce(np.maximum(np.abs(kept), np.abs(fine)), axis=1)
    return gap / np.maximum(scale, 1e-2)


def _levels(formula, values, h, sign):
    """``formula`` over stacked stencils of one kind, read at ``values``
    (stencil, point, entry), with ``h`` and ``sign`` one row per stencil:
    each one's derivative entries, its relative level gap, and the error
    of each stencil that raised.  One call for the stack, or one per
    stencil where that raises (an overflow under ``np.errstate``), so an
    error is its own stencil's only."""
    try:
        return (*formula(values, h, sign), {})
    except Exception:
        pass  # stencil by stencil below
    derivatives, gaps, errors = np.zeros(values[:, 0].shape), np.zeros(len(values)), {}
    for k in range(len(values)):
        try:
            one = slice(k, k + 1)
            (derivatives[k],), (gaps[k],) = formula(values[one], h[one], sign[one])
        except Exception as err:
            errors[k] = err
    return derivatives, gaps, errors


def _derivatives(values, one_sided, h, sign):
    """Each stencil's derivative entries, its relative level gap, and the
    error of each stencil that raised, by index: each kind's formula over
    all the stencils of that kind, as ``_levels`` runs it."""
    derivatives, gaps, errors = np.empty(values[:, 0].shape), np.empty(len(values)), {}
    for kind, formula in ((~one_sided, _central), (one_sided, _one_sided)):
        (where,) = kind.nonzero()
        if len(where):
            derivatives[where], gaps[where], failed = _levels(
                formula, values[where], h[where], sign[where]
            )
            errors.update({int(where[k]): err for k, err in failed.items()})
    return derivatives, gaps, errors


def _segments(points, sizes):
    """``points`` cut into consecutive segments of ``sizes``."""
    start = 0
    for size in sizes:
        yield points[start : start + size]
        start += size


def _field_values(field: Callable, points, sizes) -> list:
    """The field's values at ``points``, one iterator for each segment of
    ``sizes``, in order, as the FD formulas read them.

    A field with a ``stack`` (the fibre fields) evaluates all of them in one
    call and raises a point's error when that point is read; any other
    callable is called at each point as it is read.
    """
    stack = getattr(field, "stack", None)
    if stack is not None:
        return stack(points, sizes)
    return [
        (np.asarray(field(point), dtype=float) for point in segment)
        for segment in _segments(points, sizes)
    ]


def fd_jacobians(
    stack: Callable, centres, domain: Optional[tuple] = None, head: int = 0, axes=None
) -> list:
    """For each centre, its ``head`` values and its Jacobian (as ``fd_jacobian``
    gives it) along ``axes`` (every axis if None), or the first exception
    its read order meets: its head values, then each axis's points and that
    axis's check, in order.

    One call ``stack(points, sizes)`` gives all the values: one segment for
    each centre, the centre ``head`` times and then its stencil over every
    axis, read from one iterator for each segment that raises a point's
    error when that point is read.  So an error ends only its own centre.
    Each centre's values are read up to its first error; then each kind's
    formula and check run once over the stencils of every centre.
    """
    if not len(centres):
        return []
    centres = np.array([as_coords(centre) for centre in centres])
    count, n = centres.shape
    axes = list(range(n)) if axes is None else list(axes)
    segments, one_sided, h, sign = _stencils(centres, axes, domain, head)
    width = 4 * len(axes)
    reads = []  # each centre's head values, stencil values and error
    for values in stack(list(segments.reshape(-1, n)), [head + width] * count):
        read, error = [], None
        try:
            for value in islice(values, head + width):
                read.append(value)
        except Exception as err:
            error = err
        reads.append((read[:head], read[head:], error))
    # each kind's formula over the stencils of every centre, one per centre
    # and axis, each point's values flattened; a stencil a centre did not
    # read in full (after its error) reads zeros
    shape = next((np.shape(got[0]) for _, got, _ in reads if got), ())
    blank, stencils = np.zeros(shape), []
    for _, got, _ in reads:
        full = len(got) // 4 * 4
        stencils += got[:full] + [blank] * (width - full)
    values = np.array(stencils, dtype=float).reshape(count * len(axes), 4, -1)
    derivatives, gaps, errors = _derivatives(values, one_sided, h, sign)
    # (centre, axis, entry) to (centre, *shape, axis), one copy for all centres
    jacobians = derivatives.reshape(count, len(axes), -1).swapaxes(1, 2).reshape(
        (count,) + shape + (len(axes),)
    )
    disagree = (gaps > RICHARDSON_AGREE_TOL).tolist()
    results = []
    for index, (heads, got, error) in enumerate(reads):
        for axis in range(len(got) // 4):
            at = index * len(axes) + axis
            failure = errors.get(at)
            if failure is None and disagree[at]:
                failure = NumericalFailure(
                    f"Richardson levels disagree (rel {gaps[at]:.2e}) along axis "
                    f"{axes[axis]} at {centres[index].tolist()}"
                )
            if failure is not None:
                results.append(failure)
                break
        else:
            results.append(error if error is not None else (*heads, jacobians[index]))
    return results


def _unwrap(result):
    """One entry of a value-or-exception list: its value, or its exception raised."""
    if isinstance(result, Exception):
        raise result
    return result


def fd_field_derivative(field: Callable, theta, direction: int, domain: Optional[tuple] = None):
    """d field / d theta^direction for a scalar or tensor field (same shape as the field):
    the one-centre, one-axis ``fd_jacobians``."""
    stack = partial(_field_values, field)
    (jacobian,) = _unwrap(*fd_jacobians(stack, [theta], domain, axes=[direction]))
    return jacobian.take(0, axis=-1)


def fd_jacobian(field: Callable, theta, domain: Optional[tuple] = None) -> np.ndarray:
    """Derivatives J[..., i] = d field[...] / d theta^i of a tensor field of any
    rank, from one stencil over every axis: the one-centre ``fd_jacobians``."""
    return _unwrap(*fd_jacobians(partial(_field_values, field), [theta], domain))[0]
