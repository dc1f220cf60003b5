"""The model map: minimise theta -> D(x || m_theta) over the chart."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataSet, ModelDefinition, as_coords, evaluate_divergence
from .core import divergence_gradient, divergence_hessian
from .errors import NoConvergence

GRAD_TOL = 1e-9
MAX_ITER = 200
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
# a Newton step whose predicted decrease is below this share of the value is
# lost in rounding: no value comparison can judge it, so the fit has arrived
ROUNDING_DECREASE = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class FitResult:
    theta_star: np.ndarray
    divergence_value: float
    gradient_norm: float
    iterations: int
    converged: bool


def _descent_direction(grad, hess):
    """Newton step when the Hessian is PD and it descends, else steepest descent."""
    try:
        chol = np.linalg.cholesky(hess)
        step = np.linalg.solve(chol.T, np.linalg.solve(chol, -grad))
        if grad @ step < 0:
            return step, True
    except np.linalg.LinAlgError:
        pass
    return -grad / max(np.linalg.norm(grad), 1.0), False


def fit(model: ModelDefinition, x: DataSet, theta0) -> FitResult:
    """Damped Newton with Armijo backtracking, projected into the chart.

    Converged when the gradient is below GRAD_TOL at a PD Hessian, or when the
    Newton step's predicted decrease is lost in rounding (that step is taken
    whole). A stalled line search or the MAX_ITER budget raises NoConvergence."""
    chart = model.chart
    theta = chart.require(theta0).copy()
    value = evaluate_divergence(model, x, theta)
    for iteration in range(MAX_ITER):
        grad = divergence_gradient(model, x, theta)
        gnorm = float(np.max(np.abs(grad)))
        hess = divergence_hessian(model, x, theta)
        if gnorm <= GRAD_TOL:
            try:
                np.linalg.cholesky(hess)
            except np.linalg.LinAlgError:
                raise NoConvergence(
                    f"stationary point of {model.name} at {theta.tolist()} is "
                    "not a local minimum"
                )
            return FitResult(theta, value, gnorm, iteration, True)
        direction, newton = _descent_direction(grad, hess)
        slope = float(grad @ direction)
        if newton and -slope <= ROUNDING_DECREASE * max(abs(value), 1.0):
            theta = chart.clip_inside(theta + direction)
            gnorm = float(np.max(np.abs(divergence_gradient(model, x, theta))))
            value = evaluate_divergence(model, x, theta)
            return FitResult(theta, value, gnorm, iteration + 1, True)
        step = 1.0
        for _ in range(60):
            candidate = chart.clip_inside(theta + step * direction)
            new_value = evaluate_divergence(model, x, candidate)
            if new_value <= value + ARMIJO_C * step * slope:
                break
            step *= ARMIJO_SHRINK
        else:
            raise NoConvergence(f"line search stalled for {model.name} at {theta.tolist()}")
        theta, value = candidate, new_value
    raise NoConvergence(f"fit of {model.name} did not converge in {MAX_ITER} iterations")


def closed_form_fit(model: ModelDefinition, x: DataSet) -> np.ndarray:
    """Exact model map from the worked-example formulas, when available."""
    return model.closed_form_fit(x)


def fit_from_closed_form(model: ModelDefinition, x: DataSet) -> FitResult:
    """Run the iterative fit seeded at the closed-form solution."""
    return fit(model, x, as_coords(model.closed_form_fit(x)))
