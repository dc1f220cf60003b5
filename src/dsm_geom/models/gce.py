"""Grand canonical ensemble of non-interacting bosons on a finite spectrum."""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from ..core import (
    ChartSpec,
    ClosedFormOracle,
    MomentData,
    ModelDefinition,
    ProbePair,
    StatisticSpec,
    occupation_totals,
)
from ..errors import DomainError

_SCHEMA = (StatisticSpec("total_count"), StatisticSpec("total_energy"))


class _PointTerms(NamedTuple):
    """The data-free terms of the gradient and Hessian at one chart point,
    with h = f (1 + f) and gap = levels - mu."""

    occupancies: np.ndarray  # f
    energy: float  # sum(levels f)
    count: float  # sum(f)
    gap_h: float  # sum(gap h)
    gap2_h: float  # sum(gap^2 h)
    h_sum: float  # sum(h)


def _occupancies(levels, beta, mu):
    return 1.0 / np.expm1(beta * (levels - mu))


def _bose_weights(levels, beta, mu):
    """h_j = exp(x_j) / (exp(x_j) - 1)^2 = f_j (1 + f_j)."""
    f = _occupancies(levels, beta, mu)
    return f * (1.0 + f)


def _log_partition(levels, beta, mu):
    return float(-np.log(-np.expm1(-beta * (levels - mu))).sum())


def _null_space_shifts(levels):
    """Occupation shifts preserving total count and total energy."""
    j = levels.size
    if j < 3:
        return []
    basis = np.vstack([np.ones(j), levels])
    _, _, vt = np.linalg.svd(basis)
    return [vt[row] for row in range(2, j)]


def grand_canonical(levels=(1.0, 2.0, 3.0)) -> ModelDefinition:
    levels = np.asarray(levels, dtype=float)
    if np.unique(levels).size < 2:
        raise DomainError(
            f"the energy spectrum needs at least two distinct levels, got {levels.tolist()}"
        )
    eps_min = float(np.min(levels))
    shifts = _null_space_shifts(levels)  # depends on the spectrum alone

    chart = ChartSpec(
        dim=2,
        domain=((0.0, math.inf), (-math.inf, eps_min)),
        names=("beta", "mu"),
        sample_box=((0.5, 3.0), (eps_min - 3.0, eps_min - 0.1)),
    )

    def stats(x):
        return x.statistic("total_count"), x.statistic("total_energy")

    def divergence(x, theta):
        beta, mu = theta
        count, energy = stats(x)
        return _log_partition(levels, beta, mu) + beta * energy - beta * mu * count

    # one entry: every member and probe of a fibre evaluation asks at one point
    @functools.lru_cache(maxsize=1)
    def point_terms(beta, mu) -> _PointTerms:
        f = _occupancies(levels, beta, mu)
        h = f * (1.0 + f)  # _bose_weights from the occupancies at hand
        gap = levels - mu
        return _PointTerms(
            occupancies=f,
            energy=float(levels @ f),
            count=float(f.sum()),
            gap_h=float((gap * h).sum()),
            gap2_h=float((gap**2 * h).sum()),
            h_sum=float(h.sum()),
        )

    def gradient(x, theta):
        beta, mu = theta
        count, energy = stats(x)
        fibre = point_terms(beta, mu)
        return np.array(
            [
                (energy - mu * count) - (fibre.energy - mu * fibre.count),
                beta * (fibre.count - count),
            ]
        )

    def hessian(x, theta):
        beta, mu = theta
        count = x.statistic("total_count")
        fibre = point_terms(beta, mu)
        mixed = float(fibre.count - count - beta * fibre.gap_h)
        return np.array(
            [
                [fibre.gap2_h, mixed],
                [mixed, beta**2 * fibre.h_sum],
            ]
        )

    label = f"occupations(J={levels.size})"

    def member(occupations):
        # the table OccupationData fills, without re-checking occupations built here
        return MomentData(occupation_totals(occupations, levels), label=label)

    def fibre_members(coords, k):
        base = point_terms(*coords).occupancies
        members = [member(base)]
        for shift in shifts:
            if len(members) >= k:
                break
            moving = np.abs(shift) > 1e-12
            headroom = float((base[moving] / np.abs(shift[moving])).min())
            t = 0.5 * min(headroom, 1.0)
            members.append(member(base + t * shift))
            if len(members) < k:
                members.append(member(base - t * shift))
        while len(members) < k:  # J=2 spectra only have the base member
            members.append(member(base))
        return members[:k]

    def probe_pairs(coords, delta, family):
        fibre = point_terms(*coords)
        count, energy = fibre.count, fibre.energy
        d_energy = delta * max(abs(energy), 1.0)
        d_count = delta * max(abs(count), 1.0)

        def probe(count_value, energy_value, tag):
            return MomentData(
                {"total_count": count_value, "total_energy": energy_value}, label=tag
            )

        if family == 0:
            return [
                ProbePair(
                    probe(count, energy + d_energy, "n(beta)+"),
                    probe(count, energy - d_energy, "n(beta)-"),
                ),
                ProbePair(
                    probe(count - d_count, energy, "n(mu)+"),
                    probe(count + d_count, energy, "n(mu)-"),
                ),
            ]
        d_energy *= 0.5
        d_count *= 0.5
        return [
            ProbePair(
                probe(count + d_count / 3.0, energy + d_energy, "m0+"),
                probe(count - d_count / 3.0, energy - d_energy, "m0-"),
            ),
            ProbePair(
                probe(count - d_count, energy + d_energy / 3.0, "m1+"),
                probe(count + d_count, energy - d_energy / 3.0, "m1-"),
            ),
        ]

    def oracle_metric(theta):
        beta, mu = theta
        h = _bose_weights(levels, beta, mu)
        gap = levels - mu
        return np.array(
            [
                [float((gap**2 * h).sum()), -beta * float((gap * h).sum())],
                [-beta * float((gap * h).sum()), beta**2 * float(h.sum())],
            ]
        )

    def oracle_connection(theta):
        beta = theta[0]
        omega = np.zeros((2, 2, 2))
        omega[1, 0, 1] = omega[1, 1, 0] = 1.0 / beta
        return omega

    def affine_map(theta):
        beta, mu = theta
        return np.array([beta, -beta * mu])

    def affine_inverse(canonical):
        t1, t2 = canonical
        if t1 <= 0:
            raise DomainError("canonical first coordinate (beta) must be positive")
        return np.array([t1, -t2 / t1])

    def massieu_affine(canonical):
        t1, t2 = canonical
        return float(-np.log(-np.expm1(-t1 * levels - t2)).sum())

    def massieu_chart(theta):
        return _log_partition(levels, theta[0], theta[1])

    def closed_geodesic(theta0, velocity, t):
        beta0, mu0 = theta0
        v_beta, v_mu = velocity
        beta_t = beta0 + v_beta * t
        mu_t = mu0 + v_mu * beta0 * t / beta_t
        return np.array([beta_t, mu_t])

    def closed_covariant_field(theta0, v0, theta):
        beta0, mu0 = theta0
        beta, mu = theta
        invariant = beta0 * v0[1] + mu0 * v0[0]
        return np.array([v0[0], (invariant - mu * v0[0]) / beta])

    oracle = ClosedFormOracle(
        metric=oracle_metric,
        connection=oracle_connection,
        affine_map=affine_map,
        affine_inverse=affine_inverse,
        massieu_affine=massieu_affine,
        massieu_chart=massieu_chart,
        # the closed-form connection 1/beta is smooth for all mu, and its
        # geodesics legitimately cross mu = min(levels)
        connection_domain=((0.0, math.inf), (-math.inf, math.inf)),
        geodesic=closed_geodesic,
        covariant_field=closed_covariant_field,
    )

    return ModelDefinition(
        name="gce",
        chart=chart,
        statistic_schema=_SCHEMA,
        divergence_fn=divergence,
        gradient_fn=gradient,
        hessian_fn=hessian,
        fibre_sampler_fn=fibre_members,
        probe_pairs_fn=probe_pairs,
        closed_form_fit_fn=None,
        oracle=oracle,
        divergence_tag="kl",
    )
