"""von Mises-Fisher submanifolds: the 2-sphere and the half-cylinder."""
from __future__ import annotations

import functools
import math

import numpy as np

from ..core import (
    ChartSpec,
    ClosedFormOracle,
    MomentData,
    ModelDefinition,
    ProbePair,
    StatisticSpec,
)
from ..errors import DomainError

_SCHEMA = (
    StatisticSpec("mean_e1"),
    StatisticSpec("mean_e2"),
    StatisticSpec("mean_e3"),
    StatisticSpec("entropy"),
)


def _moment_vector(x):
    return np.array(
        [x.statistic("mean_e1"), x.statistic("mean_e2"), x.statistic("mean_e3")]
    )


def _moment_data(vector, entropy, tag):
    return MomentData(
        {
            "mean_e1": vector[0],
            "mean_e2": vector[1],
            "mean_e3": vector[2],
            "entropy": entropy,
        },
        label=tag,
    )


def _sphere_point(theta):
    t, p = theta
    return np.array(
        [math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)]
    )


def _read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _sphere_tangents(t, p):
    """First chart derivatives of the moment map: d_t u, d_p u (read-only)."""
    st, ct, sp, cp = math.sin(t), math.cos(t), math.sin(p), math.cos(p)
    return _read_only(np.array([ct * cp, ct * sp, -st]), np.array([-st * sp, st * cp, 0.0]))


def _sphere_second_derivatives(t, p):
    """Second chart derivatives of the moment map: d_tt u = -u, d_tp u, d_pp u (read-only)."""
    st, ct, sp, cp = math.sin(t), math.cos(t), math.sin(p), math.cos(p)
    return _read_only(
        -np.array([st * cp, st * sp, ct]),
        np.array([-ct * sp, ct * cp, 0.0]),
        np.array([-st * cp, -st * sp, 0.0]),
    )


def vmf_sphere(kappa: float = 2.0) -> ModelDefinition:
    """Fixed-width von Mises-Fisher family: a 2-sphere of radius sqrt(kappa).

    Data sets are probability distributions whose moment vector lies on
    the unit sphere; off-fibre probes move along great circles so they
    respect that constraint surface.
    """
    if kappa <= 0:
        raise DomainError("kappa must be > 0")
    log_norm = math.log(4.0 * math.pi * math.sinh(kappa) / kappa)
    fibre_entropy = log_norm - kappa  # cross-entropy at the projection

    chart = ChartSpec(
        dim=2,
        domain=((0.0, math.pi), (-math.inf, math.inf)),
        names=("theta", "phi"),
        sample_box=((0.05, math.pi - 0.05), (-math.pi, math.pi)),
    )

    # one entry each: every member and probe of a fibre evaluation asks at one point
    tangents_at = functools.lru_cache(maxsize=1)(_sphere_tangents)
    second_derivatives_at = functools.lru_cache(maxsize=1)(_sphere_second_derivatives)

    def divergence(x, theta):
        u = _sphere_point(theta)
        return -x.statistic("entropy") + log_norm - kappa * float(u @ _moment_vector(x))

    def gradient(x, theta):
        moments = _moment_vector(x)
        du_t, du_p = tangents_at(*theta)
        return np.array([-kappa * float(du_t @ moments), -kappa * float(du_p @ moments)])

    def hessian(x, theta):
        moments = _moment_vector(x)
        du_tt, du_tp, du_pp = second_derivatives_at(*theta)
        h = np.empty((2, 2))
        h[0, 0] = -kappa * float(du_tt @ moments)
        h[0, 1] = h[1, 0] = -kappa * float(du_tp @ moments)
        h[1, 1] = -kappa * float(du_pp @ moments)
        return h

    def fibre_members(coords, k):
        # the fibre pins the moment vector; members differ in the
        # divergence-invisible entropy offset only
        u = _sphere_point(coords)
        return [
            _moment_data(u, fibre_entropy - 0.35 * j, f"sphere-fibre({j})")
            for j in range(k)
        ]

    def probe_pairs(coords, delta, family):
        u = _sphere_point(coords)
        du_t, du_p = tangents_at(*coords)
        tangents = [du_t, du_p / math.sin(coords[0])]
        if family == 1:
            plus = (tangents[0] + tangents[1]) / math.sqrt(2.0)
            minus = (tangents[0] - tangents[1]) / math.sqrt(2.0)
            tangents = [plus, minus]
            delta *= 0.5

        def great_circle(direction, eps):
            return math.cos(eps) * u + math.sin(eps) * direction

        pairs = []
        for idx, direction in enumerate(tangents):
            pairs.append(
                ProbePair(
                    _moment_data(great_circle(direction, +delta), fibre_entropy, f"gc{idx}+"),
                    _moment_data(great_circle(direction, -delta), fibre_entropy, f"gc{idx}-"),
                )
            )
        return pairs

    def closed_form_fit(x):
        moments = _moment_vector(x)
        norm = float(np.linalg.norm(moments))
        if not norm > 0:
            raise DomainError("moment vector vanishes; no unique projection")
        direction = moments / norm
        return np.array(
            [math.acos(np.clip(direction[2], -1.0, 1.0)), math.atan2(direction[1], direction[0])]
        )

    def oracle_metric(theta):
        return np.diag([kappa, kappa * math.sin(theta[0]) ** 2])

    def oracle_connection(theta):
        t = theta[0]
        omega = np.zeros((2, 2, 2))
        omega[0, 1, 1] = -math.sin(t) * math.cos(t)
        omega[1, 0, 1] = omega[1, 1, 0] = math.cos(t) / math.sin(t)
        return omega

    oracle = ClosedFormOracle(
        metric=oracle_metric,
        connection=oracle_connection,
    )

    return ModelDefinition(
        name="vmf-sphere",
        chart=chart,
        statistic_schema=_SCHEMA,
        divergence_fn=divergence,
        gradient_fn=gradient,
        hessian_fn=hessian,
        fibre_sampler_fn=fibre_members,
        probe_pairs_fn=probe_pairs,
        closed_form_fit_fn=closed_form_fit,
        oracle=oracle,
        divergence_tag="kl",
    )


def vmf_cylinder(kappa: float = 2.0) -> ModelDefinition:
    """Product of a von Mises circle factor and an exponential half-line.

    The chart is restricted to the simply connected band phi in (-pi, pi)
    so the Massieu potential exists (the full mantle admits none).
    """
    if kappa <= 0:
        raise DomainError("kappa must be > 0")
    with np.errstate(over="ignore"):  # an overflow is the OverflowError below
        normaliser = 2.0 * math.pi * float(np.i0(kappa))
    if not math.isfinite(normaliser):
        raise OverflowError("2 pi I0(kappa) overflows")
    log_i0 = math.log(normaliser)

    chart = ChartSpec(
        dim=2,
        domain=((-math.pi, math.pi), (0.0, math.inf)),
        names=("phi", "lambda"),
        sample_box=((-2.5, 2.5), (0.5, 3.0)),
    )

    def log_norm(lam):
        return log_i0 - math.log(lam)

    def divergence(x, theta):
        phi, lam = theta
        moments = _moment_vector(x)
        return (
            -x.statistic("entropy")
            + log_norm(lam)
            - kappa * (math.cos(phi) * moments[0] + math.sin(phi) * moments[1])
            + lam * moments[2]
        )

    def gradient(x, theta):
        phi, lam = theta
        moments = _moment_vector(x)
        return np.array(
            [
                kappa * (math.sin(phi) * moments[0] - math.cos(phi) * moments[1]),
                -1.0 / lam + moments[2],
            ]
        )

    def hessian(x, theta):
        phi, lam = theta
        moments = _moment_vector(x)
        return np.array(
            [
                [kappa * (math.cos(phi) * moments[0] + math.sin(phi) * moments[1]), 0.0],
                [0.0, 1.0 / lam**2],
            ]
        )

    def fibre_entropy(lam):
        return log_norm(lam) - kappa + 1.0  # cross-entropy at the projection

    def fibre_members(coords, k):
        phi, lam = coords
        vec = np.array([math.cos(phi), math.sin(phi), 1.0 / lam])
        return [
            _moment_data(vec, fibre_entropy(lam) - 0.35 * j, f"cyl-fibre({j})")
            for j in range(k)
        ]

    def max_entropy(vector):
        # smallest cross-entropy over the chart keeps divergences >= 0
        return log_norm(1.0 / vector[2]) - kappa + 1.0

    def probe_pairs(coords, delta, family):
        phi, lam = coords
        e3 = 1.0 / lam
        d_angle = delta if family == 0 else 0.5 * delta
        d_e3 = delta * e3 if family == 0 else 0.5 * delta * e3

        def on_surface(angle, e3_value):
            vec = np.array([math.cos(angle), math.sin(angle), e3_value])
            return _moment_data(vec, max_entropy(vec), "cyl-probe")

        if family == 0:
            return [
                ProbePair(on_surface(phi - d_angle, e3), on_surface(phi + d_angle, e3)),
                ProbePair(on_surface(phi, e3 + d_e3), on_surface(phi, e3 - d_e3)),
            ]
        return [
            ProbePair(
                on_surface(phi - d_angle, e3 + d_e3 / 3.0),
                on_surface(phi + d_angle, e3 - d_e3 / 3.0),
            ),
            ProbePair(
                on_surface(phi + d_angle / 3.0, e3 + d_e3),
                on_surface(phi - d_angle / 3.0, e3 - d_e3),
            ),
        ]

    def closed_form_fit(x):
        moments = _moment_vector(x)
        if moments[2] <= 0:
            raise DomainError("third moment must be positive on the half-cylinder")
        return np.array([math.atan2(moments[1], moments[0]), 1.0 / moments[2]])

    def oracle_metric(theta):
        return np.diag([kappa, 1.0 / theta[1] ** 2])

    def oracle_connection(theta):
        return np.zeros((2, 2, 2))

    identity = lambda theta: np.asarray(theta, dtype=float).copy()

    def massieu(theta):
        phi, lam = theta
        return 0.5 * kappa * phi**2 - math.log(lam)

    oracle = ClosedFormOracle(
        metric=oracle_metric,
        connection=oracle_connection,
        affine_map=identity,
        affine_inverse=identity,
        massieu_affine=massieu,
        massieu_chart=massieu,
    )

    return ModelDefinition(
        name="vmf-cylinder",
        chart=chart,
        statistic_schema=_SCHEMA,
        divergence_fn=divergence,
        gradient_fn=gradient,
        hessian_fn=hessian,
        fibre_sampler_fn=fibre_members,
        probe_pairs_fn=probe_pairs,
        closed_form_fit_fn=closed_form_fit,
        oracle=oracle,
        divergence_tag="kl",
    )
