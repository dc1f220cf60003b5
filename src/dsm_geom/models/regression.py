"""Linear-regression models: plain least squares and the D_lambda divergence."""
from __future__ import annotations

import math

import numpy as np

from ..core import (
    ChartSpec,
    ClosedFormOracle,
    ModelDefinition,
    MomentData,
    ProbePair,
    RegressionData,
    StatisticSpec,
)
from ..errors import DomainError

_CHART = ChartSpec(
    dim=2,
    domain=((-math.inf, math.inf), (-math.inf, math.inf)),
    names=("a", "b"),
    sample_box=((-3.0, 3.0), (-3.0, 3.0)),
)

_SCHEMA = tuple(
    StatisticSpec(name)
    for name in ("n_points", "sum_x", "sum_y", "sum_xx", "sum_xy", "sum_yy")
)

_SUM_IDS = ("n_points", "sum_x", "sum_y", "sum_xx", "sum_xy", "sum_yy")


def _sums(x):
    return {name: x.statistic(name) for name in _SUM_IDS}


def _fibre_members(coords, k):
    """Samples whose residuals are orthogonal to {1, x} at (a, b).

    Different abscissa configurations give different second-derivative
    matrices for the least-squares divergence, which is exactly the
    condition-4 failure this model documents.
    """
    a, b = coords
    configs = [
        (np.array([0.0, 1.0, 2.0]), np.zeros(3)),
        (np.array([0.0, 1.0, 2.0]), 0.3 * np.array([1.0, -2.0, 1.0])),
        (np.array([-1.0, 0.0, 1.0, 2.0]), 0.4 * np.array([1.0, -1.0, -1.0, 1.0])),
        (np.array([-2.0, -1.0, 1.0, 2.0]), 0.25 * np.array([1.0, -1.0, -1.0, 1.0])),
    ]
    members = []
    for xs, residual in configs[: max(k, 1)]:
        ys = a * xs + b + residual
        members.append(RegressionData(np.column_stack([xs, ys])))
    while len(members) < k:
        xs = np.linspace(0.0, 2.0 + 0.5 * len(members), 4)
        members.append(RegressionData(np.column_stack([xs, a * xs + b])))
    return members[:k]


def _probe_pairs(coords, delta, family):
    a, b = coords
    xs = np.array([0.0, 1.0, 2.0])
    ys = a * xs + b
    base = RegressionData(np.column_stack([xs, ys]))
    sums = _sums(base)
    scale = max(abs(sums["sum_yy"]), 1.0)
    d = delta * scale if family == 0 else 0.4 * delta * scale

    def shifted(**deltas):
        payload = dict(sums)
        for key, amount in deltas.items():
            payload[key] = payload[key] + amount
        return MomentData(payload, label="probe")

    if family == 0:
        return [
            ProbePair(shifted(sum_xy=+d), shifted(sum_xy=-d)),
            ProbePair(shifted(sum_y=+d), shifted(sum_y=-d)),
        ]
    return [
        ProbePair(shifted(sum_xy=+d, sum_y=+d / 3.0), shifted(sum_xy=-d, sum_y=-d / 3.0)),
        ProbePair(shifted(sum_y=+d, sum_xy=-d / 3.0), shifted(sum_y=-d, sum_xy=+d / 3.0)),
    ]


def _closed_form_fit(x):
    s = _sums(x)
    p = s["n_points"] * s["sum_xx"] - s["sum_x"] ** 2
    slope = (s["n_points"] * s["sum_xy"] - s["sum_x"] * s["sum_y"]) / p
    intercept = (s["sum_y"] - slope * s["sum_x"]) / s["n_points"]
    return np.array([slope, intercept])


def regression_ls() -> ModelDefinition:
    """Least squares.  Documented condition-4 failure: the matrix of
    second derivatives depends only on the abscissae, which are not
    constant over fibres."""

    def divergence(x, theta):
        a, b = theta
        s = _sums(x)
        return 0.5 * (
            s["sum_yy"]
            - 2.0 * a * s["sum_xy"]
            - 2.0 * b * s["sum_y"]
            + a**2 * s["sum_xx"]
            + 2.0 * a * b * s["sum_x"]
            + b**2 * s["n_points"]
        )

    def gradient(x, theta):
        a, b = theta
        s = _sums(x)
        return np.array(
            [
                a * s["sum_xx"] + b * s["sum_x"] - s["sum_xy"],
                a * s["sum_x"] + b * s["n_points"] - s["sum_y"],
            ]
        )

    def hessian(x, theta):
        s = _sums(x)
        return np.array(
            [[s["sum_xx"], s["sum_x"]], [s["sum_x"], s["n_points"]]]
        )

    return ModelDefinition(
        name="regression-ls",
        chart=_CHART,
        statistic_schema=_SCHEMA,
        divergence_fn=divergence,
        gradient_fn=gradient,
        hessian_fn=hessian,
        fibre_sampler_fn=_fibre_members,
        probe_pairs_fn=_probe_pairs,
        closed_form_fit_fn=_closed_form_fit,
        oracle=None,
        divergence_tag="other",
    )


def regression_dlambda(lam: float = 1.0) -> ModelDefinition:
    """Pairwise-difference divergence with the same model map as least
    squares and a constant, data-independent second-derivative matrix."""
    if lam <= 0:
        raise DomainError("lambda must be > 0")
    lam2 = lam * lam

    def parts(x):
        s = _sums(x)
        p = s["n_points"] * s["sum_xx"] - s["sum_x"] ** 2
        qa = s["n_points"] * s["sum_yy"] - s["sum_y"] ** 2
        ra = s["n_points"] * s["sum_xy"] - s["sum_x"] * s["sum_y"]
        qb = s["sum_xx"] * s["sum_yy"] - s["sum_xy"] ** 2
        rb = s["sum_xx"] * s["sum_y"] - s["sum_x"] * s["sum_xy"]
        return p, qa, ra, qb, rb

    def divergence(x, theta):
        a, b = theta
        p, qa, ra, qb, rb = parts(x)
        return (lam2 * (qa - 2.0 * a * ra + a**2 * p) + (qb - 2.0 * b * rb + b**2 * p)) / (
            2.0 * p
        )

    def gradient(x, theta):
        a, b = theta
        p, _, ra, _, rb = parts(x)
        return np.array([lam2 * (a - ra / p), b - rb / p])

    def hessian(x, theta):
        return np.diag([lam2, 1.0])

    def oracle_metric(theta):
        return np.diag([lam2, 1.0])

    def oracle_connection(theta):
        return np.zeros((2, 2, 2))

    identity = lambda theta: np.asarray(theta, dtype=float).copy()

    def massieu(theta):
        a, b = theta
        return 0.5 * (lam2 * a**2 + b**2)

    oracle = ClosedFormOracle(
        metric=oracle_metric,
        connection=oracle_connection,
        affine_map=identity,
        affine_inverse=identity,
        massieu_affine=massieu,
        massieu_chart=massieu,
    )

    return ModelDefinition(
        name="regression-dlambda",
        chart=_CHART,
        statistic_schema=_SCHEMA,
        divergence_fn=divergence,
        gradient_fn=gradient,
        hessian_fn=hessian,
        fibre_sampler_fn=_fibre_members,
        probe_pairs_fn=_probe_pairs,
        closed_form_fit_fn=_closed_form_fit,
        oracle=oracle,
        divergence_tag="other",
    )
