"""Finite-difference engine for chart derivatives of scalars and tensors.

Every stencil takes its step from ``_step``: ``REL_STEP`` * max(|x|, 1),
shrunk so 2.5 steps fit before the nearer bound of the open box ``domain``
(a chart's ``domain`` tuple, or ``None``), never below ``ABS_STEP_FLOOR``.
First derivatives are central differences with one Richardson level, or a
one-sided 2nd-order stencil pointing away from the bound where even 2.5
floor steps do not fit (a Hessian is refused there): no stencil leaves the box.
Each checks its two step sizes against each other.  A Jacobian evaluates
the stencils of all axes as one list of points, and ``fd_jacobians`` the
stencils of many centres as one list cut into one segment per centre, so a
field that can evaluate a list of points at once does.
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


def _shifted(coords, axis, amount):
    out = np.array(coords, dtype=float)
    out[axis] += amount
    return out


def _check_agreement(fine, refined, coords, axis):
    # floor the scale so vanishing derivatives (minima) don't turn noise
    # into a spurious relative disagreement
    scale = max(np.max(np.abs(refined)), np.max(np.abs(fine)), 1e-2)
    gap = np.max(np.abs(refined - fine))
    if gap / scale > RICHARDSON_AGREE_TOL:
        raise NumericalFailure(
            f"Richardson levels disagree (rel {gap / scale:.2e}) along axis "
            f"{axis} at {coords.tolist()}"
        )


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


def _stencil(coords, axis, domain):
    """One axis's FD stencil: its points in the order its formula reads their
    values, and the formula, which checks two step sizes against each other.

    Central differences at h and h/2 with one Richardson level; where 2.5
    floor steps do not fit before a bound, the 2nd-order one-sided formula
    at h, pointing away from it, checked against the same formula at h/2.
    """
    h = _step(coords, axis, domain)
    below, above = _room(coords, axis, domain)
    if min(below, above) <= 2.5 * ABS_STEP_FLOOR:
        sign = 1.0 if above >= below else -1.0

        def one_sided(at_0, at_h, at_2h, at_half):
            coarse = sign * (-3.0 * at_0 + 4.0 * at_h - at_2h) / (2.0 * h)
            fine = sign * (-3.0 * at_0 + 4.0 * at_half - at_h) / h
            _check_agreement(fine, coarse, coords, axis)
            return coarse

        steps, formula = (0.0, sign * h, sign * 2.0 * h, sign * 0.5 * h), one_sided
    else:

        def central(at_h, at_minus_h, at_half, at_minus_half):
            coarse = (at_h - at_minus_h) / (2.0 * h)
            fine = (at_half - at_minus_half) / h
            refined = (4.0 * fine - coarse) / 3.0
            _check_agreement(fine, refined, coords, axis)
            return refined

        steps, formula = (h, -h, 0.5 * h, -0.5 * h), central
    return [_shifted(coords, axis, step) for step in steps], formula


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


def fd_field_derivative(field: Callable, theta, direction: int, domain: Optional[tuple] = None):
    """d field / d theta^direction for a scalar or tensor field (same shape as the field)."""
    points, formula = _stencil(as_coords(theta), direction, domain)
    return formula(*_field_values(field, points, [len(points)])[0])


def fd_jacobians(stack: Callable, centres, domain: Optional[tuple] = None, head: int = 0) -> list:
    """For each centre, its ``head`` values and its Jacobian (as ``fd_jacobian``
    gives it), or the first exception reading them raised.

    One call ``stack(points, sizes)`` gives all the values: one segment for
    each centre, the centre ``head`` times and then its stencil over every
    axis, read from one iterator for each segment that raises a point's
    error when that point is read.  So an error ends only its own centre.
    """
    plans, points, sizes = [], [], []
    for centre in centres:
        coords = as_coords(centre)
        stencils = [_stencil(coords, axis, domain) for axis in range(coords.size)]
        segment = [coords] * head + [point for axis, _ in stencils for point in axis]
        plans.append(stencils)
        points += segment
        sizes.append(len(segment))
    results = []
    for stencils, values in zip(plans, stack(points, sizes)):
        try:
            heads = [next(values) for _ in range(head)]
            jacobian = np.stack(
                [formula(*islice(values, len(axis))) for axis, formula in stencils], axis=-1
            )
        except Exception as err:
            results.append(err)
        else:
            results.append((*heads, jacobian))
    return results


def fd_jacobian(field: Callable, theta, domain: Optional[tuple] = None) -> np.ndarray:
    """Derivatives J[..., i] = d field[...] / d theta^i of a tensor field of any
    rank, from one stencil over every axis: the one-centre ``fd_jacobians``."""
    (result,) = fd_jacobians(partial(_field_values, field), [theta], domain)
    if isinstance(result, Exception):
        raise result
    return result[0]
