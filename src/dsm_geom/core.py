"""Abstract data set model: charts, data sets, divergences, model maps.

A data set model couples a space of data sets, a parametrised model
manifold, a model map and a divergence function.  Data sets enter every
computation only through finitely many expectation values, so the data
side of the contract is an expectation provider: given a statistic id
(and, for parameter-dependent integrands, the evaluation point) it
returns one real number.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, MissingStatistic, NumericalFailure, Unsupported

_LOG_2PI = math.log(2.0 * math.pi)
EULER_GAMMA = float(np.euler_gamma)
CENTRAL_FRACTION = 0.6  # share of the sample box spanned by default grids


def as_coords(theta) -> np.ndarray:
    """Coerce a sequence into a float vector."""
    arr = np.asarray(theta, dtype=float)
    if arr.ndim != 1:
        raise DomainError(f"parameter point must be a vector, got shape {arr.shape}")
    return arr


def in_open_box(coords: np.ndarray, domain: tuple) -> bool:
    """True when the vector ``coords`` has one entry per (lo, hi) bound of
    ``domain`` and each lies strictly between its bounds."""
    if coords.size != len(domain):
        return False
    for value, (lo, hi) in zip(coords.tolist(), domain):
        if not (lo < value < hi):
            return False
    return True


@dataclass(frozen=True)
class ChartSpec:
    """Open coordinate box of a chart plus a finite box used for sampling.

    ``domain`` bounds are open (exclusive); infinities are allowed.
    ``sample_box`` is a finite sub-box used for random sampling and
    default grids, so boundary-sensitive stencils stay well inside the
    chart (e.g. the sphere chart keeps 0.05 away from the poles).
    """

    dim: int
    domain: tuple
    names: tuple
    sample_box: tuple

    def __post_init__(self):
        if self.dim < 1 or len(self.domain) != self.dim or len(self.names) != self.dim:
            raise DomainError("inconsistent chart specification")
        for (lo, hi), (slo, shi) in zip(self.domain, self.sample_box):
            if not (lo < hi and slo < shi and lo <= slo and shi <= hi):
                raise DomainError("sample box must sit inside the open domain")

    def contains(self, theta) -> bool:
        return in_open_box(as_coords(theta), self.domain)

    def require(self, theta) -> np.ndarray:
        coords = as_coords(theta)
        if not in_open_box(coords, self.domain):
            raise DomainError(
                f"point {coords.tolist()} outside chart domain {self.domain}"
            )
        return coords

    def clip_inside(self, coords: np.ndarray, margin: float = 1e-9) -> np.ndarray:
        """Project a vector onto the open box, ``margin`` inside each bound."""
        out = np.array(coords, dtype=float)
        for i, (lo, hi) in enumerate(self.domain):
            if np.isfinite(lo):
                out[i] = max(out[i], lo + margin)
            if np.isfinite(hi):
                out[i] = min(out[i], hi - margin)
        return out

    def random_points(self, rng: np.random.Generator, count: int) -> list:
        """Uniform draws from the sample box."""
        lows = np.array([lo for lo, _ in self.sample_box])
        highs = np.array([hi for _, hi in self.sample_box])
        return [lows + rng.random(self.dim) * (highs - lows) for _ in range(count)]

    def central_grid(self, per_axis: int) -> list:
        """Regular grid over the central ``CENTRAL_FRACTION`` of the sample box."""
        axes = []
        for lo, hi in self.sample_box:
            pad = 0.5 * (1.0 - CENTRAL_FRACTION) * (hi - lo)
            axes.append(np.linspace(lo + pad, hi - pad, per_axis))
        mesh = np.meshgrid(*axes, indexing="ij")
        return [np.array(pt) for pt in zip(*(m.ravel() for m in mesh))]


@dataclass(frozen=True)
class Tolerances:
    """Thresholds the verdict checks compare their residuals with.

    cond4: fibre-Hessian spread; hessian: probe-family gap and the Massieu
    potential's covariant-Hessian gap to the metric; flat: max-abs curvature
    and the covariant-field two-path gap; torsion, codazzi: max-abs
    residuals; path: two-path gap of affine and Massieu solves.  flat and
    path also set how closely the path solves feeding those checks
    converge.  Each must be a finite number > 0, so no check passes
    vacuously.
    """

    cond4: float = 1e-3
    hessian: float = 1e-3
    flat: float = 1e-3
    torsion: float = 1e-3
    codazzi: float = 1e-3
    path: float = 1e-4

    def __post_init__(self):
        for spec in fields(self):
            value = getattr(self, spec.name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
                raise DomainError(
                    f"tolerance '{spec.name}' must be a finite number > 0, got {value!r}"
                )
            object.__setattr__(self, spec.name, float(value))


# ---------------------------------------------------------------------------
# Expectation providers (the data sets)
# ---------------------------------------------------------------------------


class DataSet:
    """Expectation provider.  Subclasses answer statistic queries.

    Queries are deterministic for a fixed payload.
    """

    label = "dataset"

    def statistic(self, statistic_id: str, theta=None) -> float:
        raise MissingStatistic(f"{self.label} cannot answer statistic '{statistic_id}'")


class MomentData(DataSet):
    """A statistic table: the values of finitely many theta-free statistics.

    Directly injected tables are the usual off-fibre probe payload; every
    provider whose statistics do not depend on theta is a subclass that
    validates its inputs and fills its table once.  ``entropy`` defaults
    to the matching-variance Gaussian value when the table carries first
    and second moments.
    """

    def __init__(self, moments: dict, label: str = "moments"):
        self.moments = dict(moments)
        self.label = label
        if "entropy" not in self.moments and {"mean_x", "mean_x2"} <= set(self.moments):
            var = self.moments["mean_x2"] - self.moments["mean_x"] ** 2
            if var <= 0:
                raise DomainError("moment payload implies non-positive variance")
            self.moments["entropy"] = 0.5 * (1.0 + _LOG_2PI + math.log(var))

    def statistic(self, statistic_id, theta=None):
        try:
            return self.moments[statistic_id]
        except KeyError:
            return super().statistic(statistic_id, theta)


class GaussianData(MomentData):
    """Normal distribution with known mean and standard deviation."""

    def __init__(self, mean: float, std: float):
        if std <= 0:
            raise DomainError("gaussian data needs std > 0")
        self.mean = float(mean)
        self.std = float(std)
        entropy = 0.5 * (1.0 + _LOG_2PI) + math.log(self.std)
        table = {"mean_x": self.mean, "mean_x2": self.std**2 + self.mean**2, "entropy": entropy}
        super().__init__(table, label=f"gaussian({mean},{std})")


class UniformData(MomentData):
    """Uniform distribution on (lo, hi)."""

    def __init__(self, lo: float, hi: float):
        if not hi > lo:
            raise DomainError("uniform data needs hi > lo")
        self.lo = float(lo)
        self.hi = float(hi)
        m = 0.5 * (self.lo + self.hi)
        second = (self.hi - self.lo) ** 2 / 12.0 + m**2
        table = {"mean_x": m, "mean_x2": second, "entropy": math.log(self.hi - self.lo)}
        super().__init__(table, label=f"uniform({lo},{hi})")


class TwoPointData(MomentData):
    """Symmetric two-point measure on {center - h, center + h}.

    Its differential entropy is -inf; the entropy offset instead uses the
    maximum-entropy (matching-variance Gaussian) value so divergences stay
    non-negative.  The offset is theta-independent, so derivatives and all
    induced geometry are unaffected.
    """

    def __init__(self, center: float, half_spread: float):
        if half_spread <= 0:
            raise DomainError("two-point data needs half_spread > 0")
        self.center = float(center)
        self.half_spread = float(half_spread)
        entropy = 0.5 * (1.0 + _LOG_2PI) + math.log(self.half_spread)
        second = self.half_spread**2 + self.center**2
        table = {"mean_x": self.center, "mean_x2": second, "entropy": entropy}
        super().__init__(table, label=f"twopoint({center},{half_spread})")


class ExponentialData(DataSet):
    """Exponential distribution with rate lambda on x >= 0.

    Answers the shifted-exponential statistics the Gumbel divergence
    reads, in closed form.
    """

    def __init__(self, rate: float):
        if rate <= 0:
            raise DomainError("exponential data needs rate > 0")
        self.rate = float(rate)
        self.label = f"exponential({rate})"

    def statistic(self, statistic_id, theta=None):
        lam = self.rate
        if statistic_id == "mean_x":
            return 1.0 / lam
        if statistic_id == "mean_x2":
            return 2.0 / lam**2
        if statistic_id == "entropy":
            return 1.0 - math.log(lam)
        if statistic_id in ("exp_shift", "lin_exp_shift", "sq_exp_shift"):
            alpha, mu = _require_theta(statistic_id, theta)
            if lam + alpha <= 0:
                raise MissingStatistic("exp_shift diverges for alpha <= -rate")
            s = lam + alpha
            front = lam * math.exp(alpha * mu)
            if statistic_id == "exp_shift":
                return front / s
            if statistic_id == "lin_exp_shift":
                return front * (1.0 / s**2 - mu / s)
            return front * (2.0 / s**3 - 2.0 * mu / s**2 + mu**2 / s)
        return super().statistic(statistic_id, theta)


class GumbelData(DataSet):
    """Gumbel distribution with shape alpha0 > 0 and mode mu0.

    Closed forms come from the Gamma-integral identities
    E[exp(-s u)] = Gamma(1+s), E[u exp(-s u)] = -Gamma'(1+s), etc., for a
    standard Gumbel variable u.
    """

    def __init__(self, alpha: float, mode: float):
        if alpha <= 0:
            raise DomainError("gumbel data needs alpha > 0")
        self.alpha = float(alpha)
        self.mode = float(mode)
        self.label = f"gumbel({alpha},{mode})"

    def statistic(self, statistic_id, theta=None):
        a0, m0 = self.alpha, self.mode
        if statistic_id == "mean_x":
            return m0 + EULER_GAMMA / a0
        if statistic_id == "entropy":
            return 1.0 + EULER_GAMMA - math.log(a0)
        if statistic_id in ("exp_shift", "lin_exp_shift", "sq_exp_shift"):
            from scipy import special  # ~0.3 s to import: only this branch needs it

            alpha, mu = _require_theta(statistic_id, theta)
            s = alpha / a0
            if 1.0 + s <= 0:
                raise MissingStatistic("exp_shift diverges for alpha <= -alpha0")
            shift = m0 - mu
            front = math.exp(-alpha * shift) * special.gamma(1.0 + s)
            psi = special.digamma(1.0 + s)
            if statistic_id == "exp_shift":
                return front
            if statistic_id == "lin_exp_shift":
                return front * (shift - psi / a0)
            psi1 = special.polygamma(1, 1.0 + s)
            return front * (
                shift**2 - 2.0 * shift * psi / a0 + (psi**2 + psi1) / a0**2
            )
        return super().statistic(statistic_id, theta)


class VonMisesFisherData(MomentData):
    """von Mises-Fisher distribution on the unit 2-sphere.

    Mean resultant length A(kappa) = coth(kappa) - 1/kappa.
    """

    def __init__(self, kappa: float, direction: Sequence[float]):
        if kappa <= 0:
            raise DomainError("vMF data needs kappa > 0")
        direction = np.asarray(direction, dtype=float)
        norm = float(np.linalg.norm(direction))
        if not norm > 0:
            raise DomainError("vMF direction must be nonzero")
        self.kappa = float(kappa)
        self.direction = direction / norm
        k = self.kappa
        resultant = 1.0 / math.tanh(k) - 1.0 / k
        log_norm = math.log(4.0 * math.pi * math.sinh(k) / k)
        table = {f"mean_e{i + 1}": resultant * self.direction[i] for i in range(3)}
        table["entropy"] = log_norm - k * resultant
        super().__init__(table, label=f"vmf({kappa})")


class WeightedSampleData(DataSet):
    """Weighted empirical sample over the real line.

    Entropy offset is 0 by convention; divergences built on it are shifted
    by a data-dependent constant, which no derivative or geometry sees.
    """

    def __init__(self, points: Sequence[float], weights: Optional[Sequence[float]] = None):
        self.points = np.asarray(points, dtype=float)
        if weights is None:
            weights = np.full(self.points.size, 1.0 / self.points.size)
        self.weights = np.asarray(weights, dtype=float)
        if self.points.shape != self.weights.shape or self.points.size == 0:
            raise DomainError("sample points and weights must match and be nonempty")
        total = self.weights.sum()
        if not total > 0:
            raise DomainError("sample weights must have positive total")
        self.weights = self.weights / total
        self.label = f"sample(n={self.points.size})"

    def statistic(self, statistic_id, theta=None):
        x, w = self.points, self.weights
        if statistic_id == "mean_x":
            return float(w @ x)
        if statistic_id == "mean_x2":
            return float(w @ x**2)
        if statistic_id == "entropy":
            return 0.0
        if statistic_id in ("exp_shift", "lin_exp_shift", "sq_exp_shift"):
            alpha, mu = _require_theta(statistic_id, theta)
            e = np.exp(-alpha * (x - mu))
            if statistic_id == "exp_shift":
                return float(w @ e)
            if statistic_id == "lin_exp_shift":
                return float(w @ ((x - mu) * e))
            return float(w @ ((x - mu) ** 2 * e))
        return super().statistic(statistic_id, theta)


def occupation_totals(occupations: np.ndarray, levels: np.ndarray) -> dict:
    """The statistic table of occupation numbers on an energy spectrum."""
    return {"total_count": float(occupations.sum()), "total_energy": float(occupations @ levels)}


class OccupationData(MomentData):
    """Measured occupation numbers of a finite energy spectrum."""

    def __init__(self, occupations: Sequence[float], levels: Sequence[float]):
        self.occupations = np.asarray(occupations, dtype=float)
        self.levels = np.asarray(levels, dtype=float)
        if self.occupations.shape != self.levels.shape or self.occupations.size == 0:
            raise DomainError("occupations and levels must match and be nonempty")
        if np.any(self.occupations < 0):
            raise DomainError("occupations must be >= 0")
        super().__init__(
            occupation_totals(self.occupations, self.levels),
            label=f"occupations(J={self.levels.size})",
        )


class RegressionData(MomentData):
    """A set of (x_j, y_j) couples for functional-relation fitting.

    Couples must satisfy N * sum(x^2) - (sum x)^2 != 0.
    """

    def __init__(self, couples: Sequence[Sequence[float]]):
        arr = np.asarray(couples, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
            raise DomainError("regression data needs >= 2 (x, y) couples")
        self.x = arr[:, 0].copy()
        self.y = arr[:, 1].copy()
        n = arr.shape[0]
        if abs(n * np.sum(self.x**2) - np.sum(self.x) ** 2) < 1e-12:
            raise DomainError("regression abscissae are degenerate")
        x, y = self.x, self.y
        super().__init__(
            {
                "n_points": float(x.size),
                "sum_x": float(x.sum()),
                "sum_y": float(y.sum()),
                "sum_xx": float(x @ x),
                "sum_xy": float(x @ y),
                "sum_yy": float(y @ y),
            },
            label=f"regression(n={n})",
        )


def _require_theta(statistic_id, theta):
    if theta is None:
        raise MissingStatistic(
            f"statistic '{statistic_id}' is parameter-dependent and needs theta"
        )
    coords = as_coords(theta)
    return float(coords[0]), float(coords[1])


# ---------------------------------------------------------------------------
# Model definition and the divergence operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatisticSpec:
    """One entry of a model's statistic schema."""

    statistic_id: str
    parameter_dependent: bool = False


@dataclass(frozen=True)
class ProbePair:
    """Antithetic off-fibre probe pair for one probe direction.

    The pair realises a centered step along a curve through the fibre, so
    the curve-derivative definition of the connection is evaluated to
    second order in the probe offset.
    """

    plus: DataSet
    minus: DataSet


@dataclass
class ClosedFormOracle:
    """Closed forms a catalogue model knows about itself, for testing and
    oracle-backed fields.  All callables take chart coordinate vectors."""

    metric: Optional[Callable] = None
    connection: Optional[Callable] = None
    affine_map: Optional[Callable] = None
    affine_inverse: Optional[Callable] = None
    massieu_chart: Optional[Callable] = None
    massieu_affine: Optional[Callable] = None
    connection_domain: Optional[tuple] = None
    geodesic: Optional[Callable] = None
    covariant_field: Optional[Callable] = None


@dataclass
class ModelDefinition:
    """One data set model: chart, divergence, samplers and probes."""

    name: str
    chart: ChartSpec
    statistic_schema: tuple
    divergence_fn: Callable
    gradient_fn: Optional[Callable] = None
    hessian_fn: Optional[Callable] = None
    fibre_sampler_fn: Optional[Callable] = None
    fibre_capacity: int = 3
    probe_pairs_fn: Optional[Callable] = None
    closed_form_fit_fn: Optional[Callable] = None
    oracle: Optional[ClosedFormOracle] = None
    divergence_tag: str = "other"
    classify_points_fn: Optional[Callable] = None
    condition4_evidence_fn: Optional[Callable] = None

    def fibre_sampler(self, theta, k: int) -> list:
        """Return up to ``k`` distinct data sets in the fibre of m_theta."""
        return self._fibre_sampler(self.chart.require(theta), k)

    def _fibre_sampler(self, coords, k):
        # the body of fibre_sampler: coords are already checked against the chart
        if self.fibre_sampler_fn is None:
            raise Unsupported(f"model {self.name} has no fibre sampler")
        return self.fibre_sampler_fn(coords, k)

    @property
    def has_probes(self) -> bool:
        if self.probe_pairs_fn is not None:
            return True
        if self.fibre_sampler_fn is None:
            return False
        independent = [
            spec
            for spec in self.statistic_schema
            if not spec.parameter_dependent and spec.statistic_id != "entropy"
        ]
        return len(independent) >= self.chart.dim

    def probe_pairs(self, theta, delta: float, family: int = 0) -> list:
        """Off-fibre probe pairs; two families (0, 1) are available.

        Models normally supply probes that perturb exactly one fibre
        condition each; the generic fallback perturbs each declared
        parameter-independent statistic of a fibre member instead.
        """
        return self._probe_pairs(self.chart.require(theta), delta, family)

    def _probe_pairs(self, coords, delta, family):
        # the body of probe_pairs: coords are already checked against the chart
        if self.probe_pairs_fn is not None:
            return self.probe_pairs_fn(coords, delta, family)
        return self._generic_probe_pairs(coords, delta, family)

    def _generic_probe_pairs(self, coords, delta, family):
        ids = [
            spec.statistic_id
            for spec in self.statistic_schema
            if not spec.parameter_dependent and spec.statistic_id != "entropy"
        ]
        if not ids:
            raise Unsupported(
                f"model {self.name} has no probe constructor and no "
                "parameter-independent statistics to perturb"
            )
        member = self._fibre_sampler(coords, 1)[0]
        base = {sid: member.statistic(sid) for sid in ids}
        base["entropy"] = 0.0
        if family == 1:
            delta = 0.5 * delta
        pairs = []
        for index, sid in enumerate(ids):
            scale = max(abs(base[sid]), 1.0)
            plus, minus = dict(base), dict(base)
            plus[sid] += delta * scale
            minus[sid] -= delta * scale
            if family == 1:  # mix in a second direction
                other = ids[(index + 1) % len(ids)]
                other_scale = max(abs(base[other]), 1.0)
                plus[other] += delta * other_scale / 3.0
                minus[other] -= delta * other_scale / 3.0
            pairs.append(
                ProbePair(
                    MomentData(plus, label=f"probe({sid})+"),
                    MomentData(minus, label=f"probe({sid})-"),
                )
            )
        return pairs

    def closed_form_fit(self, x: DataSet) -> np.ndarray:
        if self.closed_form_fit_fn is None:
            raise Unsupported(f"model {self.name} has no closed-form fit")
        result = self.closed_form_fit_fn(x)
        if result is None:
            raise Unsupported(
                f"model {self.name} has no closed-form fit for {x.label}"
            )
        return np.asarray(result, dtype=float)


def evaluate_divergence(model: ModelDefinition, x: DataSet, theta) -> float:
    """D(x || m_theta): finite, >= 0 inside the chart."""
    coords = model.chart.require(theta)
    value = float(model.divergence_fn(x, coords))
    if not math.isfinite(value):
        raise NumericalFailure(
            f"divergence of {model.name} non-finite ({value}) at {coords.tolist()}"
        )
    return value


def divergence_gradient(model: ModelDefinition, x: DataSet, theta) -> np.ndarray:
    """First parameter derivatives of D(x || m_theta): ``gradient_fn`` or FD."""
    return _divergence_gradients(model, [x], model.chart.require(theta))[0]


def _divergence_gradients(model: ModelDefinition, data, coords) -> np.ndarray:
    """Gradients of D(x || m_coords) for each data set x in ``data``, stacked (k, n).

    One ``gradient_fn`` call (or FD gradient) per data set; ``coords`` are
    already checked against the chart.
    """
    if model.gradient_fn is not None:
        return np.array([model.gradient_fn(x, coords) for x in data], dtype=float)
    from . import numdiff

    domain = model.chart.domain
    return np.array(
        [
            numdiff.fd_gradient(lambda t, x=x: model.divergence_fn(x, t), coords, domain)
            for x in data
        ]
    )


def divergence_hessian(model: ModelDefinition, x: DataSet, theta) -> np.ndarray:
    """Plain (non-covariant) second derivatives of D(x || m_theta): ``hessian_fn`` or FD."""
    return _divergence_hessians(model, [x], model.chart.require(theta))[0]


def _divergence_hessians(model: ModelDefinition, data, coords) -> np.ndarray:
    """Symmetric Hessians of D(x || m_coords) for each data set x in ``data``, stacked (k, n, n).

    One ``hessian_fn`` call (or FD Hessian, already symmetric) per data
    set; ``coords`` are already checked against the chart.
    """
    if model.hessian_fn is not None:
        hess = np.array([model.hessian_fn(x, coords) for x in data], dtype=float)
        return 0.5 * (hess + hess.transpose(0, 2, 1))
    from . import numdiff

    domain = model.chart.domain
    return np.array(
        [
            numdiff.fd_hessian(lambda t, x=x: model.divergence_fn(x, t), coords, domain)
            for x in data
        ]
    )
