"""von Mises-Fisher submanifolds: the 2-sphere and the half-cylinder."""
from __future__ import annotations

import functools
import math

import numpy as np

from ..core import ChartSpec, ClosedFormOracle, DataSet, ModelDefinition, antithetic_pairs
from ..errors import DomainError


def _moments(x):
    return x.statistic("mean_e1"), x.statistic("mean_e2"), x.statistic("mean_e3")


def _moment_data(vector, entropy, tag):
    return DataSet(
        {
            "mean_e1": vector[0],
            "mean_e2": vector[1],
            "mean_e3": vector[2],
            "entropy": entropy,
        },
        label=tag,
    )


def _fibre_members(vector, entropy, tag):
    # one fibre pins the moment vector: its members differ in the entropy alone
    return [_moment_data(vector, entropy - 0.35 * j, f"{tag}({j})") for j in range(3)]


def _sphere_point(theta):
    t, p = theta
    return np.array(
        [math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)]
    )


# one entry: every member and probe of a fibre evaluation asks at one point
@functools.lru_cache(maxsize=1)
def _sphere_frame(t, p):
    """Read-only chart derivatives of the moment map: d_t u, d_p u, d_tt u = -u, d_tp u, d_pp u."""
    st, ct, sp, cp = math.sin(t), math.cos(t), math.sin(p), math.cos(p)
    frame = (
        np.array([ct * cp, ct * sp, -st]),
        np.array([-st * sp, st * cp, 0.0]),
        -np.array([st * cp, st * sp, ct]),
        np.array([-ct * sp, ct * cp, 0.0]),
        np.array([-st * cp, -st * sp, 0.0]),
    )
    for array in frame:
        array.flags.writeable = False
    return frame


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
        domain=((0.0, math.pi), (-math.inf, math.inf)),
        names=("theta", "phi"),
        sample_box=((0.05, math.pi - 0.05), (-math.pi, math.pi)),
    )

    def divergence(x, theta):
        u = _sphere_point(theta)
        return -x.statistic("entropy") + log_norm - kappa * float(u @ np.array(_moments(x)))

    def gradient(x, theta):
        moments = np.array(_moments(x))
        du_t, du_p = _sphere_frame(*theta.tolist())[:2]
        return np.array([-kappa * float(du_t.dot(moments)), -kappa * float(du_p.dot(moments))])

    def hessian(x, theta):
        moments = np.array(_moments(x))
        du_tt, du_tp, du_pp = _sphere_frame(*theta.tolist())[2:]
        mixed = -kappa * float(du_tp.dot(moments))
        return np.array(
            [
                [-kappa * float(du_tt.dot(moments)), mixed],
                [mixed, -kappa * float(du_pp.dot(moments))],
            ]
        )

    def fibre_members(coords):
        return _fibre_members(_sphere_point(coords).tolist(), fibre_entropy, "sphere-fibre")

    def probe_pairs(coords, family):
        # the fibre conditions are the moment vector's angles along the
        # orthonormal tangents; a probe moves it along a great circle
        t, p = coords.tolist()
        u = _sphere_point(coords).tolist()
        du_t, du_p = (d.tolist() for d in _sphere_frame(t, p)[:2])
        across = [c / math.sin(t) for c in du_p]

        def probe(offsets):
            angle = math.hypot(offsets[0], offsets[1])
            a, b = offsets[0] / angle, offsets[1] / angle
            cos, sin = math.cos(angle), math.sin(angle)
            # u cos + (a d_t u + b across) sin, per component in floats
            vec = [cos * ui + sin * (a * ti + b * ci) for ui, ti, ci in zip(u, du_t, across)]
            return _moment_data(vec, fibre_entropy, "great-circle-probe")

        return antithetic_pairs(probe, (1.0, 1.0), family)

    def closed_form_fit(x):
        moments = np.array(_moments(x))
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

    return ModelDefinition(
        name="vmf-sphere",
        chart=chart,
        divergence_fn=divergence,
        gradient_fn=gradient,
        hessian_fn=hessian,
        fibre_sampler_fn=fibre_members,
        probe_pairs_fn=probe_pairs,
        closed_form_fit_fn=closed_form_fit,
        oracle=ClosedFormOracle(oracle_metric, oracle_connection),
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
        domain=((-math.pi, math.pi), (0.0, math.inf)),
        names=("phi", "lambda"),
        sample_box=((-2.5, 2.5), (0.5, 3.0)),
    )

    def log_norm(lam):
        return log_i0 - math.log(lam)

    def divergence(x, theta):
        phi, lam = theta
        moments = np.array(_moments(x))
        return (
            -x.statistic("entropy")
            + log_norm(lam)
            - kappa * (math.cos(phi) * moments[0] + math.sin(phi) * moments[1])
            + lam * moments[2]
        )

    def gradient(x, theta):
        phi, lam = theta.tolist()
        e1, e2, e3 = _moments(x)
        return np.array([kappa * (math.sin(phi) * e1 - math.cos(phi) * e2), -1.0 / lam + e3])

    def hessian(x, theta):
        phi, lam = theta  # lam a numpy scalar: lam**2 may underflow to 0
        e1, e2, _ = _moments(x)
        return np.array(
            [[kappa * (math.cos(phi) * e1 + math.sin(phi) * e2), 0.0], [0.0, 1.0 / lam**2]]
        )

    def fibre_entropy(lam):
        return log_norm(lam) - kappa + 1.0  # cross-entropy at the projection

    def fibre_members(coords):
        phi, lam = coords.tolist()
        vec = [math.cos(phi), math.sin(phi), 1.0 / lam]
        return _fibre_members(vec, fibre_entropy(lam), "cyl-fibre")

    def probe_pairs(coords, family):
        # the fibre conditions (phi lowered, e3) on the cylinder surface
        phi, lam = coords.tolist()
        e3 = 1.0 / lam

        def probe(offsets):
            angle = phi - offsets[0]
            vec = [math.cos(angle), math.sin(angle), e3 + offsets[1]]
            # the smallest cross-entropy over the chart keeps divergences >= 0
            return _moment_data(vec, fibre_entropy(1.0 / vec[2]), "cyl-probe")

        return antithetic_pairs(probe, (1.0, e3), family)

    def closed_form_fit(x):
        moments = np.array(_moments(x))
        if moments[2] <= 0:
            raise DomainError("third moment must be positive on the half-cylinder")
        return np.array([math.atan2(moments[1], moments[0]), 1.0 / moments[2]])

    def oracle_metric(theta):
        return np.diag([kappa, 1.0 / theta[1] ** 2])

    def massieu(theta):
        phi, lam = theta
        return 0.5 * kappa * phi**2 - math.log(lam)

    return ModelDefinition(
        name="vmf-cylinder",
        chart=chart,
        divergence_fn=divergence,
        gradient_fn=gradient,
        hessian_fn=hessian,
        fibre_sampler_fn=fibre_members,
        probe_pairs_fn=probe_pairs,
        closed_form_fit_fn=closed_form_fit,
        oracle=ClosedFormOracle.identity_chart(oracle_metric, massieu),
        divergence_tag="kl",
    )
