"""Finite-difference engine for chart derivatives of scalars and tensors.

Every stencil takes its step from ``_step``: ``REL_STEP`` * max(|x|, 1),
shrunk so 2.5 steps fit before the nearer bound of the open box ``domain``
(a chart's ``domain`` tuple, or ``None``), never below ``ABS_STEP_FLOOR``.
First derivatives are central differences with one Richardson level, or a
one-sided 2nd-order stencil pointing away from the bound where even 2.5
floor steps do not fit (a Hessian is refused there): no stencil leaves the box.
"""
from __future__ import annotations

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


def fd_field_derivative(field: Callable, theta, direction: int, domain: Optional[tuple] = None):
    """d field / d theta^direction for a scalar or tensor field (same shape as the field)."""
    coords = as_coords(theta)
    h = _step(coords, direction, domain)

    def at(step):
        return np.asarray(field(_shifted(coords, direction, step)), dtype=float)

    below, above = _room(coords, direction, domain)
    if min(below, above) <= 2.5 * ABS_STEP_FLOOR:
        sign = 1.0 if above >= below else -1.0
        return sign * (-3.0 * at(0.0) + 4.0 * at(sign * h) - at(sign * 2.0 * h)) / (2.0 * h)

    def central(step):
        return (at(step) - at(-step)) / (2.0 * step)

    coarse = central(h)
    fine = central(0.5 * h)
    refined = (4.0 * fine - coarse) / 3.0
    _check_agreement(fine, refined, coords, direction)
    return refined


def fd_jacobian(field: Callable, theta, domain: Optional[tuple] = None) -> np.ndarray:
    """Derivatives J[..., i] = d field[...] / d theta^i of a tensor field of any rank."""
    coords = as_coords(theta)
    return np.stack(
        [fd_field_derivative(field, coords, axis, domain) for axis in range(coords.size)],
        axis=-1,
    )
