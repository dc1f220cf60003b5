"""Geometry engine for data set models.

Builds and verifies the divergence-induced differential geometry of
parametrised models: generalised Fisher metric, affine connection,
curvature, Hessian structure, affine coordinates, Massieu potential, and
the exponential-family classification that ties them together.
"""

from .core import (
    ChartSpec,
    DataSet,
    ModelDefinition,
    ParameterPoint,
    StatisticQuery,
    Tolerances,
    evaluate_divergence,
    divergence_gradient,
    divergence_hessian,
)
from .fit import FitResult, closed_form_fit, fit

__version__ = "0.1.0"

__all__ = [
    "ChartSpec",
    "DataSet",
    "FitResult",
    "ModelDefinition",
    "ParameterPoint",
    "StatisticQuery",
    "Tolerances",
    "closed_form_fit",
    "divergence_gradient",
    "divergence_hessian",
    "evaluate_divergence",
    "fit",
    "__version__",
]
