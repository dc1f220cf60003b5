"""Normal-distribution models: relative entropy and sum-of-squares."""
from __future__ import annotations

import math

import numpy as np

from ..core import (
    ChartSpec,
    ClosedFormOracle,
    GaussianData,
    MomentData,
    ModelDefinition,
    ProbePair,
    StatisticSpec,
    TwoPointData,
    UniformData,
)
from ..errors import DomainError

_LOG_2PI = math.log(2.0 * math.pi)

_CHART = ChartSpec(
    dim=2,
    domain=((-math.inf, math.inf), (0.0, math.inf)),
    names=("mu", "sigma"),
    sample_box=((-2.0, 2.0), (0.5, 3.0)),
    chart_id="mu-sigma",
)

_SCHEMA = (StatisticSpec("mean_x"), StatisticSpec("mean_x2"), StatisticSpec("entropy"))


def _moments(x, theta=None):
    return x.statistic("mean_x", theta), x.statistic("mean_x2", theta)


def _central2(e1, e2, mu):
    return e2 - 2.0 * mu * e1 + mu * mu


def _fibre_members(coords, k):
    mu, sigma = coords
    members = [
        GaussianData(mu, sigma),
        TwoPointData(mu, sigma),
        UniformData(mu - math.sqrt(3.0) * sigma, mu + math.sqrt(3.0) * sigma),
    ]
    maxent = 0.5 * (1.0 + _LOG_2PI) + math.log(sigma)
    extra = 0
    while len(members) < k:
        extra += 1
        members.append(
            MomentData(
                {
                    "mean_x": mu,
                    "mean_x2": sigma**2 + mu**2,
                    "entropy": maxent - 0.25 * extra,
                },
                label=f"moments(offset={extra})",
            )
        )
    return members[:k]


def _moment_probe(mean, raw_second, label):
    return MomentData({"mean_x": mean, "mean_x2": raw_second}, label=label)


def _probe_pairs_kl(coords, delta, family):
    """Probes holding one fibre condition fixed (the p^(mu), p^(sigma) pairs).

    The mu probes pin the central second moment at sigma^2; the sigma
    probes pin the mean.  Family 1 mixes the two directions with a
    different offset, which must not change the result for a model with
    Hessian structure.
    """
    mu, sigma = coords

    def central_pinned(mean, central2):
        raw = central2 + 2.0 * mu * mean - mu * mu
        return raw

    if family == 0:
        d = delta * sigma
        return [
            ProbePair(
                _moment_probe(mu + d, central_pinned(mu + d, sigma**2), "p(mu)+"),
                _moment_probe(mu - d, central_pinned(mu - d, sigma**2), "p(mu)-"),
            ),
            ProbePair(
                _moment_probe(mu, central_pinned(mu, (sigma + d) ** 2), "p(sigma)+"),
                _moment_probe(mu, central_pinned(mu, (sigma - d) ** 2), "p(sigma)-"),
            ),
        ]
    d = 0.5 * delta * sigma
    return [
        ProbePair(
            _moment_probe(mu + d, central_pinned(mu + d, (sigma + d / 3.0) ** 2), "q0+"),
            _moment_probe(mu - d, central_pinned(mu - d, (sigma - d / 3.0) ** 2), "q0-"),
        ),
        ProbePair(
            _moment_probe(mu - d / 3.0, central_pinned(mu - d / 3.0, (sigma + d) ** 2), "q1+"),
            _moment_probe(mu + d / 3.0, central_pinned(mu + d / 3.0, (sigma - d) ** 2), "q1-"),
        ),
    ]


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

    def gradient(x, theta):
        mu, sigma = theta
        e1, e2 = _moments(x)
        return np.array(
            [
                -(e1 - mu) / sigma**2,
                1.0 / sigma - _central2(e1, e2, mu) / sigma**3,
            ]
        )

    def hessian(x, theta):
        mu, sigma = theta
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

    def massieu_chart(theta):
        mu, sigma = theta
        return mu**2 / (2.0 * sigma**2) + 0.5 * (_LOG_2PI + 2.0 * math.log(sigma))

    oracle = ClosedFormOracle(
        metric=oracle_metric,
        connection=oracle_connection,
        affine_map=affine_map,
        affine_inverse=affine_inverse,
        massieu_affine=massieu_affine,
        massieu_chart=massieu_chart,
    )

    return ModelDefinition(
        name="gaussian-kl",
        chart=_CHART,
        statistic_schema=_SCHEMA,
        divergence_fn=divergence,
        gradient_fn=gradient,
        hessian_fn=hessian,
        fibre_sampler_fn=_fibre_members,
        probe_pairs_fn=_probe_pairs_kl,
        closed_form_fit_fn=_closed_form_fit,
        oracle=oracle,
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

    def divergence(x, theta):
        mu, sigma = theta
        e1, e2 = _moments(x)
        gap = mu**2 + sigma**2 - e2
        return 0.5 * inv_mu02 * (mu - e1) ** 2 + 0.25 * inv_s04 * gap**2

    def gradient(x, theta):
        mu, sigma = theta
        e1, e2 = _moments(x)
        gap = mu**2 + sigma**2 - e2
        return np.array(
            [inv_mu02 * (mu - e1) + inv_s04 * mu * gap, inv_s04 * sigma * gap]
        )

    def hessian(x, theta):
        mu, sigma = theta
        _, e2 = _moments(x)
        return np.array(
            [
                [inv_mu02 + inv_s04 * (3.0 * mu**2 + sigma**2 - e2), 2.0 * inv_s04 * mu * sigma],
                [2.0 * inv_s04 * mu * sigma, inv_s04 * (mu**2 + 3.0 * sigma**2 - e2)],
            ]
        )

    def probe_pairs(coords, delta, family):
        mu, sigma = coords
        d = delta * sigma if family == 0 else 0.5 * delta * sigma
        raw_fibre = sigma**2 + mu**2

        def probe(mean, raw, tag):
            return _moment_probe(mean, raw, tag)

        if family == 0:
            return [
                ProbePair(
                    probe(mu + d, raw_fibre, "p(mu)+"), probe(mu - d, raw_fibre, "p(mu)-")
                ),
                ProbePair(
                    probe(mu, (sigma + d) ** 2 + mu**2, "p(sigma)+"),
                    probe(mu, (sigma - d) ** 2 + mu**2, "p(sigma)-"),
                ),
            ]
        return [
            ProbePair(
                probe(mu + d, (sigma + d / 3.0) ** 2 + mu**2, "q0+"),
                probe(mu - d, (sigma - d / 3.0) ** 2 + mu**2, "q0-"),
            ),
            ProbePair(
                probe(mu - d / 3.0, (sigma + d) ** 2 + mu**2, "q1+"),
                probe(mu + d / 3.0, (sigma - d) ** 2 + mu**2, "q1-"),
            ),
        ]

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

    def massieu_chart(theta):
        mu, sigma = theta
        return 0.5 * inv_mu02 * mu**2 + 0.25 * inv_s04 * (mu**2 + sigma**2) ** 2

    oracle = ClosedFormOracle(
        metric=oracle_metric,
        connection=oracle_connection,
        affine_map=affine_map,
        affine_inverse=affine_inverse,
        massieu_affine=massieu_affine,
        massieu_chart=massieu_chart,
    )

    return ModelDefinition(
        name="gaussian-sumsq",
        chart=_CHART,
        statistic_schema=(StatisticSpec("mean_x"), StatisticSpec("mean_x2")),
        divergence_fn=divergence,
        gradient_fn=gradient,
        hessian_fn=hessian,
        fibre_sampler_fn=_fibre_members,
        probe_pairs_fn=probe_pairs,
        closed_form_fit_fn=_closed_form_fit,
        oracle=oracle,
        divergence_tag="other",
    )
