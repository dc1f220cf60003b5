"""Normal-distribution models: relative entropy and sum-of-squares."""
from __future__ import annotations

import functools
import math

import numpy as np

from ..core import (
    _LOG_2PI,
    ChartSpec,
    ClosedFormOracle,
    DataSet,
    GaussianData,
    ModelDefinition,
    TwoPointData,
    UniformData,
    antithetic_pairs,
)
from ..errors import DomainError

_CHART = ChartSpec(
    domain=((-math.inf, math.inf), (0.0, math.inf)),
    names=("mu", "sigma"),
    sample_box=((-2.0, 2.0), (0.5, 3.0)),
)


def _moments(x):
    return x.statistic("mean_x"), x.statistic("mean_x2")


def _central2(e1, e2, mu):
    return e2 - 2.0 * mu * e1 + mu * mu


def _fibre_members(coords):
    mu, sigma = coords.tolist()
    return [
        GaussianData(mu, sigma),
        TwoPointData(mu, sigma),
        UniformData(mu - math.sqrt(3.0) * sigma, mu + math.sqrt(3.0) * sigma),
    ]


def _probe_pairs(coords, family, second_moment):
    """Probes moving the fibre conditions (mean, spread) from (mu, sigma).

    ``second_moment(mu, mean, spread)`` is a probe's raw second moment.
    """
    mu, sigma = coords.tolist()

    def probe(offsets):
        mean, spread = mu + offsets[0], sigma + offsets[1]
        table = {"mean_x": mean, "mean_x2": second_moment(mu, mean, spread)}
        return DataSet(table, label="probe")

    return antithetic_pairs(probe, (sigma, sigma), family)


def _central_pinned(mu, mean, spread):
    # the raw second moment whose central second moment about mu is spread^2
    return spread**2 + 2.0 * mu * mean - mu * mu


def _closed_form_fit(x):
    e1, e2 = _moments(x)
    var = e2 - e1 * e1
    if var <= 0:
        raise DomainError("data second moment is not above mean squared")
    return np.array([e1, math.sqrt(var)])


def gaussian_kl() -> ModelDefinition:
    """Normal distributions under the relative entropy."""

    def divergence(x, theta):
        mu, sigma = theta
        e1, e2 = _moments(x)
        return (
            -x.statistic("entropy")
            + 0.5 * (_LOG_2PI + 2.0 * math.log(sigma))
            + _central2(e1, e2, mu) / (2.0 * sigma**2)
        )

    # sigma stays a numpy scalar: a power of it that underflows to 0 divides
    # to inf or NaN (as np.errstate says), where a float raises ZeroDivisionError
    def gradient(x, theta):
        mu, sigma = float(theta[0]), theta[1]
        e1, e2 = _moments(x)
        return np.array(
            [
                -(e1 - mu) / sigma**2,
                1.0 / sigma - _central2(e1, e2, mu) / sigma**3,
            ]
        )

    def hessian(x, theta):
        mu, sigma = float(theta[0]), theta[1]
        e1, e2 = _moments(x)
        off = 2.0 * (e1 - mu) / sigma**3
        return np.array(
            [
                [1.0 / sigma**2, off],
                [off, -1.0 / sigma**2 + 3.0 * _central2(e1, e2, mu) / sigma**4],
            ]
        )

    def oracle_metric(theta):
        sigma = theta[1]
        return np.diag([1.0 / sigma**2, 2.0 / sigma**2])

    def oracle_connection(theta):
        sigma = theta[1]
        omega = np.zeros((2, 2, 2))
        omega[0, 0, 1] = omega[0, 1, 0] = -2.0 / sigma
        omega[1, 1, 1] = -3.0 / sigma
        return omega

    def affine_map(theta):
        mu, sigma = theta
        return np.array([1.0 / (2.0 * sigma**2), -mu / sigma**2])

    def affine_inverse(canonical):
        t1, t2 = canonical
        if t1 <= 0:
            raise DomainError("canonical first coordinate must be positive")
        sigma = 1.0 / math.sqrt(2.0 * t1)
        return np.array([-t2 * sigma**2, sigma])

    def massieu_affine(canonical):
        t1, t2 = canonical
        return t2**2 / (4.0 * t1) + 0.5 * math.log(math.pi / t1)

    return ModelDefinition(
        name="gaussian-kl",
        chart=_CHART,
        divergence_fn=divergence,
        gradient_fn=gradient,
        hessian_fn=hessian,
        fibre_sampler_fn=_fibre_members,
        probe_pairs_fn=functools.partial(_probe_pairs, second_moment=_central_pinned),
        closed_form_fit_fn=_closed_form_fit,
        oracle=ClosedFormOracle(
            metric=oracle_metric,
            connection=oracle_connection,
            affine_map=affine_map,
            affine_inverse=affine_inverse,
            massieu_affine=massieu_affine,
        ),
        divergence_tag="kl",
    )


def gaussian_sumsq(mu0: float = 1.0, sigma0: float = 1.0) -> ModelDefinition:
    """Normal distributions under the sum-of-squares divergence.

    Same model map as the relative-entropy variant; the induced
    connection is the dual-style one with affine coordinates equal to the
    expectation parameters (mu, mu^2 + sigma^2).
    """
    if mu0 <= 0 or sigma0 <= 0:
        raise DomainError("sum-of-squares scales mu0, sigma0 must be > 0")
    inv_mu02 = 1.0 / mu0**2
    inv_s04 = 1.0 / sigma0**4
    # float division returns inf, not an error, when the power is subnormal
    for name, value in (("1/mu0^2", inv_mu02), ("1/sigma0^4", inv_s04)):
        if not math.isfinite(value):
            raise OverflowError(f"{name} overflows")

    def divergence(x, theta):
        mu, sigma = theta
        e1, e2 = _moments(x)
        gap = mu**2 + sigma**2 - e2
        return 0.5 * inv_mu02 * (mu - e1) ** 2 + 0.25 * inv_s04 * gap**2

    def gradient(x, theta):
        mu, sigma = theta.tolist()
        e1, e2 = _moments(x)
        gap = mu**2 + sigma**2 - e2
        return np.array(
            [inv_mu02 * (mu - e1) + inv_s04 * mu * gap, inv_s04 * sigma * gap]
        )

    def hessian(x, theta):
        mu, sigma = theta.tolist()
        _, e2 = _moments(x)
        return np.array(
            [
                [inv_mu02 + inv_s04 * (3.0 * mu**2 + sigma**2 - e2), 2.0 * inv_s04 * mu * sigma],
                [2.0 * inv_s04 * mu * sigma, inv_s04 * (mu**2 + 3.0 * sigma**2 - e2)],
            ]
        )

    def oracle_metric(theta):
        mu, sigma = theta
        return np.array(
            [
                [2.0 * mu**2 * inv_s04 + inv_mu02, 2.0 * mu * sigma * inv_s04],
                [2.0 * mu * sigma * inv_s04, 2.0 * sigma**2 * inv_s04],
            ]
        )

    def oracle_connection(theta):
        sigma = theta[1]
        omega = np.zeros((2, 2, 2))
        omega[1, 0, 0] = 1.0 / sigma
        omega[1, 1, 1] = 1.0 / sigma
        return omega

    def affine_map(theta):
        mu, sigma = theta
        return np.array([mu, mu**2 + sigma**2])

    def affine_inverse(expectation):
        e1, e2 = expectation
        if e2 <= e1 * e1:
            raise DomainError("expectation parameters outside the model image")
        return np.array([e1, math.sqrt(e2 - e1 * e1)])

    def massieu_affine(expectation):
        e1, e2 = expectation
        return 0.5 * inv_mu02 * e1**2 + 0.25 * inv_s04 * e2**2

    return ModelDefinition(
        name="gaussian-sumsq",
        chart=_CHART,
        divergence_fn=divergence,
        gradient_fn=gradient,
        hessian_fn=hessian,
        fibre_sampler_fn=_fibre_members,
        # the raw second moment of N(mu, spread^2), whatever the probe's mean
        probe_pairs_fn=functools.partial(
            _probe_pairs, second_moment=lambda mu, mean, spread: spread**2 + mu**2
        ),
        closed_form_fit_fn=_closed_form_fit,
        oracle=ClosedFormOracle(
            metric=oracle_metric,
            connection=oracle_connection,
            affine_map=affine_map,
            affine_inverse=affine_inverse,
            massieu_affine=massieu_affine,
        ),
    )
