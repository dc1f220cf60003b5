"""Abstract data set model: charts, data sets, divergences, model maps.

A data set model couples a space of data sets, a parametrised model
manifold, a model map and a divergence function.  Data sets enter every
computation only through finitely many expectation values, so the data
side of the contract is an expectation provider: given a statistic id
it returns one real number.  The off-fibre probes are data sets too: one
flat list per probe family, the n plus probes and then their n minus probes.
A model is whole with a divergence and a fibre sampler: a model that
supplies no probes gets the neighbouring fibres' members as its probes,
and its own probe design is an optional, faster source of the same data.
"""
from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, MissingStatistic, NumericalFailure, Unsupported

_LOG_2PI = math.log(2.0 * math.pi)
PROBE_DELTA = 1e-3  # an off-fibre probe moves a fibre condition by this times its scale
CENTRAL_FRACTION = 0.6  # share of the sample box spanned by default grids
MAX_POINTS = 2500  # longest grid, target or way-point list: 100 times the default 5 x 5 grid


def as_coords(theta) -> np.ndarray:
    """Coerce a sequence into a float vector."""
    try:
        arr = np.asarray(theta, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, not numbers, or beyond floats
        raise DomainError(f"parameter point must be a vector of numbers, got {theta!r}") from None
    if arr.ndim != 1:
        raise DomainError(f"parameter point must be a vector, got shape {arr.shape}")
    return arr


def finite_real(value) -> bool:
    """Whether ``value`` is a finite real number: a Python or numpy int or float, not a bool."""
    try:
        return isinstance(value, numbers.Real) and type(value) is not bool and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def bad_leaf(value, depth: int = 0) -> Optional[str]:
    """The short repr of the first leaf of ``value``, read as ``depth`` levels of
    lists, that is not a ``finite_real`` number, else None.  A tuple or numpy
    array counts as a list; a value nested the wrong way is one leaf."""
    value = value.tolist() if isinstance(value, np.ndarray) else value
    if depth and isinstance(value, (list, tuple)):
        return next(filter(None, (bad_leaf(item, depth - 1) for item in value)), None)
    return None if not depth and finite_real(value) else reprlib.repr(value)


def in_open_box(coords: np.ndarray, domain: tuple) -> bool:
    """True when the vector ``coords`` has one entry per (lo, hi) bound of
    ``domain`` and each lies strictly between its bounds."""
    if coords.size != len(domain):
        return False
    for value, (lo, hi) in zip(coords.tolist(), domain):
        if not (lo < value < hi):
            return False
    return True


def require_point(theta, domain: tuple, what: str = "point", where: str = "chart") -> np.ndarray:
    """``theta`` as a float vector strictly inside the open box ``domain``, or a DomainError."""
    coords = as_coords(theta)
    if coords.size != len(domain):
        raise DomainError(
            f"{what} {coords.tolist()} has {coords.size} coordinates, the {where} {len(domain)}"
        )
    if not in_open_box(coords, domain):
        raise DomainError(f"{what} {coords.tolist()} outside {where} domain {domain}")
    return coords


def require_points(points, domain: tuple, what: str, where: str = "chart") -> list:
    """Each of ``points`` checked by ``require_point``, or a DomainError; a list
    that is empty or longer than ``MAX_POINTS`` is refused before any point."""
    try:
        points = list(points)
    except TypeError:  # a number, or None
        raise DomainError(f"{what}s must be a list, got {points!r}") from None
    if not 1 <= len(points) <= MAX_POINTS:
        raise DomainError(f"{len(points)} {what}s, outside the budget of 1 to {MAX_POINTS}")
    return [require_point(point, domain, what, where) for point in points]


def require_tangent(vector, point: np.ndarray, what: str, base: str) -> np.ndarray:
    """``vector`` as a finite float vector of the checked ``point``'s length, or a DomainError."""
    values = as_coords(vector)
    if values.size != point.size:
        raise DomainError(
            f"{what} {values.tolist()} has {values.size} components, {base} {point.size}"
        )
    if not np.isfinite(values).all():
        raise DomainError(f"{what} {values.tolist()} is not finite")
    return values


@dataclass(frozen=True)
class ChartSpec:
    """Open coordinate box of a chart plus a finite box used for sampling.

    ``domain`` bounds are open (exclusive); infinities are allowed.
    ``sample_box`` is a finite sub-box used for random sampling and
    default grids, so boundary-sensitive stencils stay well inside the
    chart (e.g. the sphere chart keeps 0.05 away from the poles).  The
    chart's dimension is the number of domain bounds; ``names`` and
    ``sample_box`` carry one entry per axis.
    """

    domain: tuple
    names: tuple
    sample_box: tuple

    @property
    def dim(self) -> int:
        return len(self.domain)

    def __post_init__(self):
        if self.dim < 1 or len(self.names) != self.dim or len(self.sample_box) != self.dim:
            raise DomainError("inconsistent chart specification")
        for (lo, hi), (slo, shi) in zip(self.domain, self.sample_box):
            if not (lo < hi and slo < shi and lo <= slo and shi <= hi):
                raise DomainError("sample box must sit inside the open domain")

    def contains(self, theta) -> bool:
        return in_open_box(as_coords(theta), self.domain)

    def require(self, theta) -> np.ndarray:
        return require_point(theta, self.domain)

    def clip_inside(self, coords: np.ndarray) -> np.ndarray:
        """Project a vector onto the open box, 1e-9 inside each bound."""
        out = np.array(coords, dtype=float)
        for i, (lo, hi) in enumerate(self.domain):
            if np.isfinite(lo):
                out[i] = max(out[i], lo + 1e-9)
            if np.isfinite(hi):
                out[i] = min(out[i], hi - 1e-9)
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
    """Thresholds the verdict checks compare their residuals with, each
    through ``passes``.

    cond4: fibre-Hessian spread; hessian: probe-family gap; flat: max-abs
    curvature and the covariant-field two-path gap; codazzi: max-abs
    Codazzi residual; path: two-path gap of affine and Massieu solves.
    flat and path also set how closely the path solves feeding those
    checks converge.  There is no torsion tolerance: the solved connection
    is symmetric by construction, so no torsion check could fail.  Each
    must be a finite number > 0, so no check passes vacuously.  A failed
    check is a verdict, not an error: the library returns each residual,
    and ``classify`` and the CLI judge it.  Only the condition-4 gate of
    ``geometry.metric_at`` raises, since no metric or connection exists
    past it.
    """

    cond4: float = 1e-3
    hessian: float = 1e-3
    flat: float = 1e-3
    codazzi: float = 1e-3
    path: float = 1e-4

    def __post_init__(self):
        for spec in fields(self):
            value = getattr(self, spec.name)
            if not (finite_real(value) and value > 0):
                raise DomainError(
                    f"tolerance '{spec.name}' must be a finite number > 0, got {value!r}"
                )
            object.__setattr__(self, spec.name, float(value))


def passes(value, tolerance: float) -> bool:
    """The one verdict rule: a value passes when at most its tolerance; NaN fails."""
    return float(value) <= tolerance


# ---------------------------------------------------------------------------
# Expectation providers (the data sets)
# ---------------------------------------------------------------------------


class DataSet:
    """A statistic table: the values of finitely many theta-free statistics.

    Directly injected tables are the usual off-fibre probe payload; every
    other data set is a subclass that validates its inputs and fills its
    table once.  ``entropy`` defaults to the matching-variance Gaussian
    value when the table carries first and second moments.
    """

    def __init__(self, moments: dict, label: str = "moments"):
        self.moments = table = dict(moments)
        self.label = label
        if "entropy" not in table and "mean_x" in table and "mean_x2" in table:
            var = table["mean_x2"] - table["mean_x"] ** 2
            if var <= 0:
                raise DomainError("moment payload implies non-positive variance")
            table["entropy"] = 0.5 * (1.0 + _LOG_2PI + math.log(var))

    def statistic(self, statistic_id: str) -> float:
        try:
            return self.moments[statistic_id]
        except KeyError:
            raise MissingStatistic(
                f"{self.label} cannot answer statistic '{statistic_id}'"
            ) from None


class GaussianData(DataSet):
    """Normal distribution with known mean and standard deviation."""

    def __init__(self, mean: float, std: float):
        if std <= 0:
            raise DomainError("gaussian data needs std > 0")
        m, s = float(mean), float(std)
        entropy = 0.5 * (1.0 + _LOG_2PI) + math.log(s)
        table = {"mean_x": m, "mean_x2": s**2 + m**2, "entropy": entropy}
        super().__init__(table, label=f"gaussian({mean},{std})")


class UniformData(DataSet):
    """Uniform distribution on (lo, hi)."""

    def __init__(self, lo: float, hi: float):
        if not hi > lo:
            raise DomainError("uniform data needs hi > lo")
        width = float(hi) - float(lo)
        m = 0.5 * (float(lo) + float(hi))
        table = {"mean_x": m, "mean_x2": width**2 / 12.0 + m**2, "entropy": math.log(width)}
        super().__init__(table, label=f"uniform({lo},{hi})")


class TwoPointData(DataSet):
    """Symmetric two-point measure on {center - h, center + h}.

    Its differential entropy is -inf; the entropy offset instead uses the
    maximum-entropy (matching-variance Gaussian) value so divergences stay
    non-negative.  The offset is theta-independent, so derivatives and all
    induced geometry are unaffected.
    """

    def __init__(self, center: float, half_spread: float):
        if half_spread <= 0:
            raise DomainError("two-point data needs half_spread > 0")
        c, h = float(center), float(half_spread)
        entropy = 0.5 * (1.0 + _LOG_2PI) + math.log(h)
        table = {"mean_x": c, "mean_x2": h**2 + c**2, "entropy": entropy}
        super().__init__(table, label=f"twopoint({center},{half_spread})")


def occupation_totals(occupations: np.ndarray, levels: np.ndarray) -> dict:
    """The statistic table of occupation numbers on an energy spectrum."""
    return {
        "total_count": float(occupations.sum()),
        "total_energy": float(occupations.dot(levels)),
    }


def regression_sums(x: np.ndarray, y: np.ndarray) -> dict:
    """The statistic table of the couples (x_j, y_j), from contiguous vectors."""
    return {
        "n_points": float(x.size),
        "sum_x": float(x.sum()),
        "sum_y": float(y.sum()),
        "sum_xx": float(x.dot(x)),
        "sum_xy": float(x.dot(y)),
        "sum_yy": float(y.dot(y)),
    }


class RegressionData(DataSet):
    """A set of (x_j, y_j) couples for functional-relation fitting.

    Couples must satisfy N * sum(x^2) - (sum x)^2 != 0.
    """

    def __init__(self, couples: Sequence[Sequence[float]]):
        try:
            arr = np.asarray(couples, dtype=float)
        except (TypeError, ValueError):  # ragged or not numbers: the shape check refuses it
            arr = np.empty(0)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
            raise DomainError("regression data needs >= 2 (x, y) couples")
        x = arr[:, 0].copy()
        y = arr[:, 1].copy()
        n = arr.shape[0]
        if abs(n * np.sum(x**2) - np.sum(x) ** 2) < 1e-12:
            raise DomainError("regression abscissae are degenerate")
        super().__init__(regression_sums(x, y), label=f"regression(n={n})")


# ---------------------------------------------------------------------------
# Model definition and the divergence operations
# ---------------------------------------------------------------------------


def antithetic_pairs(probe: Callable, scales: Sequence[float], family: int) -> list:
    """One probe family's 2n data sets from one probe: ``probe(offsets)`` is
    the data set whose n fibre conditions are moved by ``offsets``.

    Condition i's step is ``PROBE_DELTA * scales[i]``.  Family 0 moves
    condition i alone by its step.  Family 1 halves the steps and moves
    condition i by its step and each other condition by a third of its
    step, + after i and - before it; for a model with a Hessian structure
    the two families give the same connection.  The list holds the n plus
    probes, then the n minus probes: minus probe i is ``probe(-offsets)`` of
    plus probe i, a centered step along a curve through the fibre, so the
    connection is evaluated to second order in the probe offset.
    """
    steps = [PROBE_DELTA * scale for scale in scales]
    if family == 0:
        rows = [[s if j == i else 0.0 for j, s in enumerate(steps)] for i in range(len(steps))]
    else:
        halves = [0.5 * step for step in steps]
        rows = [
            [h if j == i else (h / 3.0 if j > i else -h / 3.0) for j, h in enumerate(halves)]
            for i in range(len(halves))
        ]
    return [probe(plus) for plus in rows] + [probe([-offset for offset in plus]) for plus in rows]


@dataclass
class ClosedFormOracle:
    """Closed forms a catalogue model knows about itself, for testing and
    oracle-backed fields.  All callables take chart coordinate vectors."""

    metric: Optional[Callable] = None
    connection: Optional[Callable] = None
    affine_map: Optional[Callable] = None
    affine_inverse: Optional[Callable] = None
    massieu_affine: Optional[Callable] = None
    connection_domain: Optional[tuple] = None
    geodesic: Optional[Callable] = None
    covariant_field: Optional[Callable] = None

    @classmethod
    def identity_chart(cls, metric: Callable, massieu: Callable) -> ClosedFormOracle:
        """The oracle of a flat model whose chart coordinates are affine: a zero
        connection of the chart's dimension, and affine maps that return copies."""

        def connection(theta):
            return np.zeros((len(theta),) * 3)

        def identity(theta):
            return np.asarray(theta, dtype=float).copy()

        return cls(metric, connection, identity, identity, massieu)

    def massieu_chart(self, theta) -> float:
        """The Massieu potential at a chart point, through the affine coordinates."""
        return self.massieu_affine(self.affine_map(theta))


@dataclass
class ModelDefinition:
    """One data set model: chart, divergence, samplers and, optionally, probes."""

    name: str
    chart: ChartSpec
    divergence_fn: Callable
    gradient_fn: Optional[Callable] = None
    hessian_fn: Optional[Callable] = None
    fibre_sampler_fn: Optional[Callable] = None
    probe_pairs_fn: Optional[Callable] = None
    closed_form_fit_fn: Optional[Callable] = None
    oracle: Optional[ClosedFormOracle] = None
    divergence_tag: str = "other"
    classify_points_fn: Optional[Callable] = None
    condition4_evidence_fn: Optional[Callable] = None

    def fibre_sampler(self, theta) -> list:
        """Return the model's own sample of data sets in the fibre of m_theta."""
        return self._fibre_sampler(self.chart.require(theta))

    def _fibre_sampler(self, coords):
        # the body of fibre_sampler: coords are already checked against the chart
        if self.fibre_sampler_fn is None:
            raise Unsupported(f"model {self.name} has no fibre sampler")
        members = self.fibre_sampler_fn(coords)
        if len(members) < 2:  # one member would pass condition 4 vacuously
            raise Unsupported(
                f"the fibre sampler of {self.name} gave {len(members)} members; "
                "condition 4 needs at least two"
            )
        return members

    def probe_pairs(self, theta, family: int = 0) -> list:
        """One probe family's off-fibre data sets, as ``antithetic_pairs``
        lists them: n plus probes, then their n minus probes; two families
        (0, 1) are available.  Without ``probe_pairs_fn`` the probe at
        offsets is member 0 of the fibre at the point moved by them."""
        return self._probe_pairs(self.chart.require(theta), family)

    def _probe_pairs(self, coords, family):
        # the body of probe_pairs: coords are already checked against the chart
        if self.probe_pairs_fn is not None:
            return self.probe_pairs_fn(coords, family)
        # without the model's own probes, the probe at offsets is member 0 of the
        # neighbouring fibre; each step keeps within half the room to a bound
        scales = [
            min(max(abs(c), 1.0), 0.5 * min(c - lo, hi - c) / PROBE_DELTA)
            for c, (lo, hi) in zip(coords.tolist(), self.chart.domain)
        ]
        try:
            return antithetic_pairs(
                lambda offsets: self.fibre_sampler(coords + offsets)[0], scales, family
            )
        except (DomainError, Unsupported) as err:  # a neighbour with no fibre
            raise Unsupported(f"model {self.name} has no off-fibre probes: {err}") from None

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
    return np.array(_gradient_rows(model, [x], model.chart.require(theta)), dtype=float)[0]


def _gradient_rows(model: ModelDefinition, data, coords) -> list:
    """Gradients of D(x || m_coords), one row for each data set x in ``data``.

    One ``gradient_fn`` call (or FD gradient) per data set; ``coords`` are
    already checked against the chart.  The caller stacks the rows, so the
    rows of a whole stack of points are stacked once.
    """
    if model.gradient_fn is not None:
        return [model.gradient_fn(x, coords) for x in data]
    from . import numdiff

    return _fd_rows(numdiff.fd_gradient, model, data, coords)


def divergence_hessian(model: ModelDefinition, x: DataSet, theta) -> np.ndarray:
    """Plain (non-covariant) second derivatives of D(x || m_theta): ``hessian_fn`` or FD."""
    return _stacked_hessians(model, _hessian_rows(model, [x], model.chart.require(theta)))[0]


def _hessian_rows(model: ModelDefinition, data, coords) -> list:
    """Hessians of D(x || m_coords), one row for each data set x in ``data``,
    as ``_gradient_rows`` gives gradients; ``_stacked_hessians`` stacks them."""
    if model.hessian_fn is not None:
        return [model.hessian_fn(x, coords) for x in data]
    from . import numdiff

    return _fd_rows(numdiff.fd_hessian, model, data, coords)


def _stacked_hessians(model: ModelDefinition, rows) -> np.ndarray:
    """Hessian rows, or lists of them, stacked (..., n, n) and symmetric:
    ``hessian_fn`` values are averaged with their transposes, FD Hessians
    are symmetric as computed."""
    hess = np.array(rows, dtype=float)
    if model.hessian_fn is None:
        return hess
    return 0.5 * (hess + hess.swapaxes(-1, -2))


def _fd_rows(stencil: Callable, model: ModelDefinition, data, coords) -> list:
    """The ``numdiff`` ``stencil`` of D(x || m_coords) for each data set x in ``data``."""
    domain = model.chart.domain
    return [stencil(lambda t, x=x: model.divergence_fn(x, t), coords, domain) for x in data]
