"""Grand canonical ensemble of non-interacting bosons on a finite spectrum."""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from ..core import (
    ChartSpec,
    ClosedFormOracle,
    DataSet,
    ModelDefinition,
    antithetic_pairs,
    occupation_totals,
)
from ..errors import DomainError


class _PointTerms(NamedTuple):
    """The data-free terms of the gradient and Hessian at one chart point,
    with h = f (1 + f) and gap = levels - mu."""

    occupancies: np.ndarray  # f
    energy: float  # sum(levels f)
    count: float  # sum(f)
    gap_h: float  # sum(gap h)
    gap2_h: float  # sum(gap^2 h)
    h_sum: float  # sum(h)


# the fibre's null-space shift takes a J x J SVD: 3000 levels peak at 170 MB
MAX_LEVELS = 1000


def _occupancies(levels, beta, mu):
    return 1.0 / np.expm1(beta * (levels - mu))


def _log_partition(levels, beta, mu):
    return float(-np.log(-np.expm1(-beta * (levels - mu))).sum())


def _null_space_shift(levels):
    """An occupation shift preserving total count and total energy; None for two levels."""
    j = levels.size
    if j < 3:
        return None
    basis = np.vstack([np.ones(j), levels])
    _, _, vt = np.linalg.svd(basis)
    return vt[2]


def grand_canonical(levels=(1.0, 2.0, 3.0)) -> ModelDefinition:
    levels = np.asarray(levels, dtype=float)
    if levels.size > MAX_LEVELS:
        raise DomainError(
            f"the gce spectrum has {levels.size} levels, more than the budget of {MAX_LEVELS}"
        )
    # min < max rather than np.unique, which imports numpy.ma
    if not (levels.size and levels.min() < levels.max()):
        span = f" in [{levels.min()}, {levels.max()}]" if levels.size else ""
        raise DomainError(
            f"the energy spectrum needs at least two distinct levels, got {levels.size}{span}"
        )
    eps_min = float(np.min(levels))
    # the shift depends on the spectrum alone, as do the levels it moves and
    # its step sizes there, which bound how far a member may shift
    shift = _null_space_shift(levels)
    if shift is not None:
        moving = np.abs(shift) > 1e-12
        steps = np.abs(shift[moving])

    chart = ChartSpec(
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
        h = f * (1.0 + f)
        gap = levels - mu
        return _PointTerms(
            occupancies=f,
            energy=float(levels.dot(f)),
            count=float(f.sum()),
            gap_h=float((gap * h).sum()),
            gap2_h=float((gap**2 * h).sum()),
            h_sum=float(h.sum()),
        )

    def gradient(x, theta):
        beta, mu = theta.tolist()
        count, energy = stats(x)
        fibre = point_terms(beta, mu)
        return np.array(
            [
                (energy - mu * count) - (fibre.energy - mu * fibre.count),
                beta * (fibre.count - count),
            ]
        )

    def hessian(x, theta):
        beta, mu = theta.tolist()
        count = x.statistic("total_count")
        fibre = point_terms(beta, mu)
        mixed = fibre.count - count - beta * fibre.gap_h
        return np.array([[fibre.gap2_h, mixed], [mixed, beta**2 * fibre.h_sum]])

    label = f"occupations(J={levels.size})"

    def member(occupations):
        # occupations built here need no validation
        return DataSet(occupation_totals(occupations, levels), label=label)

    def fibre_members(coords):
        fibre = point_terms(*coords.tolist())
        # the base member's totals are the point's own sums, bit for bit
        first = DataSet({"total_count": fibre.count, "total_energy": fibre.energy}, label=label)
        if shift is None:  # J=2 spectra only have the base member
            return [first] * 3
        base = fibre.occupancies
        headroom = float((base[moving] / steps).min())
        t = 0.5 * min(headroom, 1.0)
        return [first, member(base + t * shift), member(base - t * shift)]

    def probe_pairs(coords, family):
        # the fibre conditions (count lowered, energy raised)
        fibre = point_terms(*coords.tolist())
        count, energy = fibre.count, fibre.energy

        def probe(offsets):
            table = {"total_count": count - offsets[0], "total_energy": energy + offsets[1]}
            return DataSet(table, label="probe")

        return antithetic_pairs(probe, (max(abs(count), 1.0), max(abs(energy), 1.0)), family)

    def oracle_metric(theta):
        beta, mu = theta
        f = _occupancies(levels, beta, mu)
        h = f * (1.0 + f)  # exp(x) / (exp(x) - 1)^2, the Bose weight
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

    return ModelDefinition(
        name="gce",
        chart=chart,
        divergence_fn=divergence,
        gradient_fn=gradient,
        hessian_fn=hessian,
        fibre_sampler_fn=fibre_members,
        probe_pairs_fn=probe_pairs,
        oracle=ClosedFormOracle(
            metric=oracle_metric,
            connection=oracle_connection,
            affine_map=affine_map,
            affine_inverse=affine_inverse,
            massieu_affine=massieu_affine,
            # the closed-form connection 1/beta is smooth for all mu, and its
            # geodesics legitimately cross mu = min(levels)
            connection_domain=((0.0, math.inf), (-math.inf, math.inf)),
            geodesic=closed_geodesic,
            covariant_field=closed_covariant_field,
        ),
        divergence_tag="kl",
    )
