"""Gumbel distributions under the relative entropy: the negative example.

The second divergence derivative with respect to the shape parameter is
not constant on fibres, so no generalised Fisher metric exists.  The
fibre sampler exposes the pair that exhibits the failure: the Gumbel
distribution itself and the exponential distribution whose projection
lands on the same model point.  The divergence integrates
exp(-alpha (x - mu)), which depends on the model point, against the data;
these two data sets answer that integral in closed form
(``shift_integrals``), and no other data set can.
"""
from __future__ import annotations

import math

import numpy as np

from ..core import ChartSpec, DataSet, ModelDefinition
from ..errors import DomainError, MissingStatistic

EULER_GAMMA = float(np.euler_gamma)
GOLDEN_RATIO = 0.5 * (1.0 + math.sqrt(5.0))

_CHART = ChartSpec(
    domain=((0.0, math.inf), (-math.inf, math.inf)),
    names=("alpha", "mu"),
    sample_box=((0.8, 3.3), (-1.0, 1.0)),
)


# asymptotic series in z = 1/x^2 (Abramowitz & Stegun 6.3.18 and 6.4.12): the
# Bernoulli terms B_2k / 2k of psi and B_2k of psi', k = 1..7
_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
_TRIGAMMA_SERIES = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def _series(z: float, coefficients) -> float:
    """sum of c_k z^k, k = 1, 2, ..., by Horner's rule."""
    total = 0.0
    for c in reversed(coefficients):
        total = total * z + c
    return total * z


def _gamma(x: float) -> np.float64:
    """Gamma(x) for x > 0; inf where it overflows (x > 171.6)."""
    try:
        return np.float64(math.gamma(x))
    except OverflowError:
        return np.float64(math.inf)


def _digamma(x: float) -> np.float64:
    """psi(x) for x > 0 (Bernardo, "Algorithm AS 103", Appl. Statist. 25, 1976).

    Integers up to 10 are summed as cephes sums them, bit for bit; other
    points recur up to x >= 10 and take the asymptotic series.
    """
    if x <= 10.0 and x == math.floor(x):
        return np.float64(sum(1.0 / k for k in range(1, int(x))) - EULER_GAMMA)
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    return np.float64(math.log(x) - 0.5 / x - _series(1.0 / (x * x), _DIGAMMA_SERIES) - shift)


def _trigamma(x: float) -> np.float64:
    """psi'(x) for x > 0: recurrence up to x >= 10, then the asymptotic series."""
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / (x * x)
        x += 1.0
    return np.float64(shift + (1.0 + 0.5 / x + _series(1.0 / (x * x), _TRIGAMMA_SERIES)) / x)


class ExponentialData(DataSet):
    """Exponential distribution with rate lambda on x >= 0."""

    def __init__(self, rate: float):
        if rate <= 0:
            raise DomainError("exponential data needs rate > 0")
        self.rate = lam = float(rate)
        table = {"mean_x": 1.0 / lam, "mean_x2": 2.0 / lam**2, "entropy": 1.0 - math.log(lam)}
        super().__init__(table, label=f"exponential({rate})")

    def shift_integrals(self, alpha: float, mu: float) -> tuple:
        """exp_shift, lin_exp_shift, sq_exp_shift: E[w], E[(x-mu) w] and
        E[(x-mu)^2 w] for w = exp(-alpha (x-mu)), in closed form."""
        lam = self.rate
        if lam + alpha <= 0:
            raise MissingStatistic("exp_shift diverges for alpha <= -rate")
        s = lam + alpha
        front = lam * math.exp(alpha * mu)
        return (
            front / s,
            front * (1.0 / s**2 - mu / s),
            front * (2.0 / s**3 - 2.0 * mu / s**2 + mu**2 / s),
        )


class GumbelData(DataSet):
    """Gumbel distribution with shape alpha0 > 0 and mode mu0."""

    def __init__(self, alpha: float, mode: float):
        if alpha <= 0:
            raise DomainError("gumbel data needs alpha > 0")
        self.alpha = a0 = float(alpha)
        self.mode = float(mode)
        entropy = 1.0 + EULER_GAMMA - math.log(a0)
        table = {"mean_x": self.mode + EULER_GAMMA / a0, "entropy": entropy}
        super().__init__(table, label=f"gumbel({alpha},{mode})")

    def shift_integrals(self, alpha: float, mu: float) -> tuple:
        """ExponentialData.shift_integrals for this data set, from the
        Gamma-integral identities E[exp(-s u)] = Gamma(1+s),
        E[u exp(-s u)] = -Gamma'(1+s), etc., for a standard Gumbel variable u.
        """
        a0 = self.alpha
        s = alpha / a0
        if 1.0 + s <= 0:
            raise MissingStatistic("exp_shift diverges for alpha <= -alpha0")
        shift = self.mode - mu
        front = math.exp(-alpha * shift) * _gamma(1.0 + s)
        psi = _digamma(1.0 + s)
        psi1 = _trigamma(1.0 + s)
        return (
            front,
            front * (shift - psi / a0),
            front * (shift**2 - 2.0 * shift * psi / a0 + (psi**2 + psi1) / a0**2),
        )


def _shift_integrals(x, theta) -> tuple:
    """exp_shift, lin_exp_shift and sq_exp_shift of the data set x at theta."""
    if not isinstance(x, (ExponentialData, GumbelData)):
        raise MissingStatistic(f"{x.label} cannot answer statistic 'exp_shift'")
    return x.shift_integrals(float(theta[0]), float(theta[1]))


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
            + _shift_integrals(x, theta)[0]
        )

    def gradient(x, theta):
        alpha, mu = theta
        exp_shift, lin, _ = _shift_integrals(x, theta)
        return np.array(
            [-1.0 / alpha + (x.statistic("mean_x") - mu) - lin, alpha * (exp_shift - 1.0)]
        )

    def hessian(x, theta):
        alpha, mu = theta
        exp_shift, lin, sq = _shift_integrals(x, theta)
        mixed = -1.0 + exp_shift - alpha * lin
        return np.array(
            [[1.0 / alpha**2 + sq, mixed], [mixed, alpha**2 * exp_shift]]
        )

    def fibre_members(coords):
        alpha, mu = coords
        rate = alpha / GOLDEN_RATIO
        expected = compatible_point(rate)
        if abs(mu - expected[1]) > 1e-8 * max(1.0, abs(expected[1])):
            raise DomainError(
                f"gumbel fibre pair exists only on the compatible curve "
                f"mu = ln((rate+alpha)/rate)/alpha; at alpha={alpha:.6g} that "
                f"is mu={expected[1]:.10g}, got mu={mu:.10g}"
            )
        return [GumbelData(alpha, mu), ExponentialData(rate)]

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

    return ModelDefinition(
        name="gumbel",
        chart=_CHART,
        divergence_fn=divergence,
        gradient_fn=gradient,
        hessian_fn=hessian,
        fibre_sampler_fn=fibre_members,
        closed_form_fit_fn=closed_form_fit,
        divergence_tag="kl",
        classify_points_fn=classify_points,
        condition4_evidence_fn=condition4_evidence,
    )
