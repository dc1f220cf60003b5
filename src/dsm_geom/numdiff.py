"""Finite-difference engine for chart derivatives of scalars and tensors.

Central differences with one Richardson extrapolation level.
Steps shrink near chart boundaries so stencils never leave the open
domain; gradients fall back to a one-sided second-order stencil when a
bound is closer than two steps.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import ChartSpec, as_coords
from .errors import NumericalFailure

ABS_STEP_FLOOR = 1e-7
RICHARDSON_AGREE_TOL = 1e-3
HESSIAN_ASYMMETRY_TOL = 1e-3


@dataclass(frozen=True)
class DiffConfig:
    """Step policy for finite differences on one chart."""

    rel_step: float = 1e-4
    domain: Optional[tuple] = None

    @classmethod
    def for_chart(cls, chart: ChartSpec, rel_step: float = 1e-4):
        return cls(rel_step=rel_step, domain=chart.domain)

    def step(self, coords: np.ndarray, axis: int) -> float:
        scale = max(abs(float(coords[axis])), 1.0)
        return max(self.rel_step * scale, ABS_STEP_FLOOR)

    def bound_distance(self, coords: np.ndarray, axis: int) -> tuple:
        """Distances to the lower / upper bound along one axis (inf if open)."""
        if self.domain is None:
            return np.inf, np.inf
        lo, hi = self.domain[axis]
        below = coords[axis] - lo if np.isfinite(lo) else np.inf
        above = hi - coords[axis] if np.isfinite(hi) else np.inf
        return below, above


def _shifted(coords, axis, amount):
    out = np.array(coords, dtype=float)
    out[axis] += amount
    return out


def _axis_derivative(f, coords, axis, h, cfg):
    """d f / d coords[axis] with step h, honouring boundary stencils."""
    below, above = cfg.bound_distance(coords, axis)
    if below > 2.0 * h and above > 2.0 * h:
        def central(step):
            return (f(_shifted(coords, axis, step)) - f(_shifted(coords, axis, -step))) / (
                2.0 * step
            )

        coarse = central(h)
        fine = central(0.5 * h)
        refined = (4.0 * fine - coarse) / 3.0
        _check_agreement(fine, refined, coords, axis)
        return refined
    # within two steps of a bound: shrink, then a one-sided 2nd-order stencil
    room = min(below, above)
    if room > 2.5 * ABS_STEP_FLOOR:
        h = min(h, room / 2.5)
        # the shrunken step is known to fit, avoid re-triggering the boundary path
        return _axis_derivative(f, coords, axis, h, replace(cfg, domain=None))
    sign = 1.0 if above >= below else -1.0
    f0 = f(coords)
    f1 = f(_shifted(coords, axis, sign * h))
    f2 = f(_shifted(coords, axis, sign * 2.0 * h))
    return sign * (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)


def _check_agreement(fine, refined, coords, axis):
    # floor the scale so vanishing derivatives (minima) don't turn noise
    # into a spurious relative disagreement
    scale = max(
        np.max(np.abs(np.asarray(refined))), np.max(np.abs(np.asarray(fine))), 1e-2
    )
    gap = np.max(np.abs(np.asarray(refined) - np.asarray(fine)))
    if gap / scale > RICHARDSON_AGREE_TOL:
        raise NumericalFailure(
            f"Richardson levels disagree (rel {gap / scale:.2e}) along axis "
            f"{axis} at {np.asarray(coords).tolist()}"
        )


def fd_gradient(f: Callable, theta, cfg: Optional[DiffConfig] = None) -> np.ndarray:
    """Central-difference gradient of a scalar chart field."""
    coords = as_coords(theta)
    cfg = cfg or DiffConfig()
    grad = np.empty(coords.size)
    for axis in range(coords.size):
        grad[axis] = _axis_derivative(f, coords, axis, cfg.step(coords, axis), cfg)
    return grad


def _fit_step(cfg, coords, axis):
    h = cfg.step(coords, axis)
    below, above = cfg.bound_distance(coords, axis)
    room = min(below, above)
    if np.isfinite(room):
        h = min(h, room / 2.5)
    return max(h, ABS_STEP_FLOOR)


def fd_hessian(f: Callable, theta, cfg: Optional[DiffConfig] = None) -> np.ndarray:
    """Symmetrised second-derivative matrix of a scalar chart field."""
    coords = as_coords(theta)
    cfg = cfg or DiffConfig()
    n = coords.size

    def hessian_with(h_vec):
        hess = np.empty((n, n))
        f0 = f(coords)
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

    steps = np.array([_fit_step(cfg, coords, i) for i in range(n)])
    coarse = hessian_with(steps)
    fine = hessian_with(0.5 * steps)
    result = (4.0 * fine - coarse) / 3.0
    asym = np.max(np.abs(result - result.T))
    scale = max(np.max(np.abs(result)), 1e-12)
    if asym / scale > HESSIAN_ASYMMETRY_TOL:
        raise NumericalFailure(
            f"hessian asymmetry {asym / scale:.2e} exceeds tolerance at "
            f"{coords.tolist()}"
        )
    return 0.5 * (result + result.T)


def fd_field_derivative(field: Callable, theta, direction: int, cfg: Optional[DiffConfig] = None):
    """Partial derivative of a tensor field along one chart axis.

    ``field`` maps a coordinate vector to an ndarray (any rank); the
    result has the same shape.
    """
    coords = as_coords(theta)
    cfg = cfg or DiffConfig()
    h = _fit_step(cfg, coords, direction)

    def central(step):
        upper = np.asarray(field(_shifted(coords, direction, step)), dtype=float)
        lower = np.asarray(field(_shifted(coords, direction, -step)), dtype=float)
        return (upper - lower) / (2.0 * step)

    coarse = central(h)
    fine = central(0.5 * h)
    refined = (4.0 * fine - coarse) / 3.0
    _check_agreement(fine, refined, coords, direction)
    return refined


def fd_jacobian(field: Callable, theta, cfg: Optional[DiffConfig] = None) -> np.ndarray:
    """Derivatives J[..., i] = d field[...] / d theta^i of a tensor field of any rank."""
    coords = as_coords(theta)
    cfg = cfg or DiffConfig()
    return np.stack(
        [fd_field_derivative(field, coords, axis, cfg) for axis in range(coords.size)],
        axis=-1,
    )
