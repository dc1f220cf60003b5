"""Gumbel distributions under the relative entropy: the negative example.

The second divergence derivative with respect to the shape parameter is
not constant on fibres, so no generalised Fisher metric exists.  The
fibre sampler exposes the pair that exhibits the failure: the Gumbel
distribution itself and the exponential distribution whose projection
lands on the same model point.
"""
from __future__ import annotations

import math

import numpy as np

from ..core import (
    ChartSpec,
    EULER_GAMMA,
    ExponentialData,
    GumbelData,
    ModelDefinition,
    StatisticSpec,
)
from ..errors import DomainError

GOLDEN_RATIO = 0.5 * (1.0 + math.sqrt(5.0))

#: alpha^2 * E[(x-mu)^2 exp(-alpha(x-mu))] for a Gumbel member of its own fibre
SELF_FIBRE_CONSTANT = EULER_GAMMA**2 - 2.0 * EULER_GAMMA + math.pi**2 / 6.0

_CHART = ChartSpec(
    dim=2,
    domain=((0.0, math.inf), (-math.inf, math.inf)),
    names=("alpha", "mu"),
    sample_box=((0.8, 3.3), (-1.0, 1.0)),
)

_SCHEMA = (
    StatisticSpec("mean_x"),
    StatisticSpec("entropy"),
    StatisticSpec("exp_shift", parameter_dependent=True),
    StatisticSpec("lin_exp_shift", parameter_dependent=True),
    StatisticSpec("sq_exp_shift", parameter_dependent=True),
)


def compatible_point(rate: float) -> np.ndarray:
    """Model point carrying the fibre of the exponential distribution."""
    alpha = GOLDEN_RATIO * rate
    mode = math.log((rate + alpha) / rate) / alpha
    return np.array([alpha, mode])


def gumbel() -> ModelDefinition:
    def divergence(x, theta):
        alpha, mu = theta
        return (
            -x.statistic("entropy")
            - math.log(alpha)
            + alpha * (x.statistic("mean_x") - mu)
            + x.statistic("exp_shift", theta)
        )

    def gradient(x, theta):
        alpha, mu = theta
        return np.array(
            [
                -1.0 / alpha
                + (x.statistic("mean_x") - mu)
                - x.statistic("lin_exp_shift", theta),
                alpha * (x.statistic("exp_shift", theta) - 1.0),
            ]
        )

    def hessian(x, theta):
        alpha, mu = theta
        exp_shift = x.statistic("exp_shift", theta)
        lin = x.statistic("lin_exp_shift", theta)
        sq = x.statistic("sq_exp_shift", theta)
        mixed = -1.0 + exp_shift - alpha * lin
        return np.array(
            [[1.0 / alpha**2 + sq, mixed], [mixed, alpha**2 * exp_shift]]
        )

    def fibre_members(coords, k):
        alpha, mu = coords
        rate = alpha / GOLDEN_RATIO
        expected = compatible_point(rate)
        if abs(mu - expected[1]) > 1e-8 * max(1.0, abs(expected[1])):
            raise DomainError(
                f"gumbel fibre pair exists only on the compatible curve "
                f"mu = ln((rate+alpha)/rate)/alpha; at alpha={alpha:.6g} that "
                f"is mu={expected[1]:.10g}, got mu={mu:.10g}"
            )
        members = [GumbelData(alpha, mu), ExponentialData(rate)]
        return members[:k]

    def classify_points(per_axis):
        rates = np.linspace(0.5, 2.0, per_axis)
        return [compatible_point(rate) for rate in rates]

    def closed_form_fit(x):
        if isinstance(x, ExponentialData):
            return compatible_point(x.rate)
        if isinstance(x, GumbelData):
            return np.array([x.alpha, x.mode])
        return None

    def condition4_evidence(coords, hessians, labels):
        # the varying part of the (alpha, alpha) entry, times alpha^2; the
        # two members give ~0.82 and ~0.5
        alpha = coords[0]
        varying = {
            label: (hess[0, 0] - 1.0 / alpha**2) * alpha**2
            for label, hess in zip(labels, hessians)
        }
        values = sorted(varying.values())
        return {
            "varying_terms": varying,
            "varying_ratio": values[-1] / values[0] if values[0] else float("inf"),
        }

    model = ModelDefinition(
        name="gumbel",
        chart=_CHART,
        statistic_schema=_SCHEMA,
        divergence_fn=divergence,
        gradient_fn=gradient,
        hessian_fn=hessian,
        fibre_sampler_fn=fibre_members,
        fibre_capacity=2,
        probe_pairs_fn=None,
        closed_form_fit_fn=closed_form_fit,
        oracle=None,
        divergence_tag="kl",
        classify_points_fn=classify_points,
        condition4_evidence_fn=condition4_evidence,
    )
    return model
