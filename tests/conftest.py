import collections
import dataclasses
import math

import numpy as np
import pytest

from dsm_geom import models, numdiff
from dsm_geom.core import (
    ChartSpec,
    DataSet,
    GaussianData,
    ModelDefinition,
    RegressionData,
    TwoPointData,
    UniformData,
    occupation_totals,
)
from dsm_geom.models.gumbel import ExponentialData, GumbelData

HESSIAN_STRUCTURED = (
    "gaussian-kl",
    "gaussian-sumsq",
    "regression-dlambda",
    "gce",
    "vmf-cylinder",
)

METRIC_BEARING = HESSIAN_STRUCTURED + ("vmf-sphere",)


MODEL_CALLABLES = (
    "divergence_fn", "gradient_fn", "hessian_fn", "fibre_sampler_fn", "probe_pairs_fn"
)


def counting(calls, key, fn):
    """``fn`` that adds one to ``calls[key]`` at each call."""

    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def counted_model(model):
    """A copy of ``model`` whose callables count their calls into the
    returned Counter, keyed by attribute name."""
    calls = collections.Counter()
    wrapped = {
        attr: counting(calls, attr, getattr(model, attr))
        for attr in MODEL_CALLABLES
        if getattr(model, attr) is not None  # a missing probe keeps the default
    }
    return dataclasses.replace(model, **wrapped), calls


@pytest.fixture(scope="session")
def catalogue():
    return models.catalogue()


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


def nan_probe_model():
    """gaussian-kl whose model Hessian is NaN at every probe data set, so its
    connection is NaN while its metric and condition 4 are sound."""
    base = models.build("gaussian-kl")

    def hessian(x, theta):
        h = base.hessian_fn(x, theta)
        return np.full_like(h, np.nan) if x.label == "probe" else h

    return dataclasses.replace(base, hessian_fn=hessian)


def nan_gradient_probe_model():
    """gaussian-kl whose model gradient is NaN at every probe data set, so its
    probe matrix is NaN while its metric and condition 4 are sound."""
    base = models.build("gaussian-kl")

    def gradient(x, theta):
        g = base.gradient_fn(x, theta)
        return np.full_like(g, np.nan) if x.label == "probe" else g

    return dataclasses.replace(base, gradient_fn=gradient)


def split_model(probe_pairs_fn=None):
    """A quadratic divergence on the (u, v) plane whose three fibre members
    differ in weight only for u > 0, so condition 4 fails there alone.
    Without ``probe_pairs_fn`` each probe is a neighbouring fibre's member 0."""

    def divergence(x, theta):
        delta = np.asarray(theta) - [x.statistic("c1"), x.statistic("c2")]
        return float(0.5 * x.statistic("w") * (delta @ delta))

    def data(theta, weight):
        return DataSet({"c1": theta[0], "c2": theta[1], "w": weight, "entropy": 0.0})

    return ModelDefinition(
        name="split",
        chart=ChartSpec(
            domain=((-math.inf, math.inf), (-math.inf, math.inf)),
            names=("u", "v"),
            sample_box=((-1.0, 1.0), (-1.0, 1.0)),
        ),
        divergence_fn=divergence,
        fibre_sampler_fn=lambda theta: [data(theta, 1.0 + (theta[0] > 0) * i) for i in range(3)],
        probe_pairs_fn=probe_pairs_fn,
    )


def wrong_fibre_model():
    """gaussian-kl whose three fibre members at (mu, sigma) have mean
    mu + 0.1 sigma and spread sigma: members of another model point.  The
    members agree with one another, so condition 4 holds, and the probes
    are the model's own, so the probe families agree; only Codazzi fails."""
    base = models.build("gaussian-kl")

    def members(coords):
        mean, sigma = coords[0] + 0.1 * coords[1], coords[1]
        half = math.sqrt(3.0) * sigma
        return [
            GaussianData(mean, sigma),
            TwoPointData(mean, sigma),
            UniformData(mean - half, mean + half),
        ]

    return dataclasses.replace(base, fibre_sampler_fn=members)


def stencil_points(model, point):
    """The points of the FD stencil ``fd_jacobian`` reads at ``point`` of the
    model's chart, in the order its formulas read them."""
    seen = []
    numdiff.fd_jacobian(lambda theta: seen.append(theta) or 0.0, point, model.chart.domain)
    return seen


def raised(call):
    """The type and message of what ``call()`` raises."""
    with pytest.raises(Exception) as excinfo:
        call()
    return type(excinfo.value), str(excinfo.value)


def faulty_model(hessian_at=None, sampler_at=()):
    """gaussian-kl whose model Hessian raises ArithmeticError at the chart
    point ``hessian_at`` (None: nowhere) and whose fibre sampler raises
    ValueError at each chart point of ``sampler_at``."""
    base = models.build("gaussian-kl")

    def hessian(x, theta):
        if hessian_at is not None and np.array_equal(theta, hessian_at):
            raise ArithmeticError(f"hessian refuses {np.asarray(theta).tolist()}")
        return base.hessian_fn(x, theta)

    def sampler(theta):
        if any(np.array_equal(theta, point) for point in sampler_at):
            raise ValueError(f"sampler refuses {np.asarray(theta).tolist()}")
        return base.fibre_sampler_fn(theta)

    return dataclasses.replace(base, hessian_fn=hessian, fibre_sampler_fn=sampler)


# floating-point errors raise, as under the command line
RAISE_FP_ERRORS = dict(over="raise", divide="raise", invalid="raise")


# ---------------------------------------------------------------------------
# Independent oracles (kept deliberately separate from the package paths)
# ---------------------------------------------------------------------------


def gaussian_kl_closed_form(mean_p, std_p, mu, sigma):
    """KL between two normals, coded from the textbook formula."""
    return (
        (std_p**2 + (mean_p - mu) ** 2) / (2.0 * sigma**2)
        - 0.5
        + math.log(sigma / std_p)
    )


def least_squares_fit(points):
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    n = xs.size
    denom = n * np.sum(xs**2) - np.sum(xs) ** 2
    slope = (n * np.sum(xs * ys) - np.sum(xs) * np.sum(ys)) / denom
    intercept = (np.sum(ys) - slope * np.sum(xs)) / n
    return np.array([slope, intercept])


def gce_occupancy_sums(levels, beta, mu):
    f = 1.0 / np.expm1(beta * (np.asarray(levels) - mu))
    return float(np.sum(f)), float(np.asarray(levels) @ f)


def gce_fit_bisection(levels, count, energy, beta_lo=1e-3, beta_hi=60.0):
    """Solve the two fibre equations by nested bisection, independent of fit().

    For fixed beta, mu -> total count is increasing, so mu is found by
    bisection; beta is then found from the energy equation, which is
    decreasing in beta at matched count.
    """
    levels = np.asarray(levels, dtype=float)
    eps_min = float(np.min(levels))

    def mu_for(beta):
        lo, hi = eps_min - 200.0 / beta, eps_min - 1e-12 / beta
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            total = gce_occupancy_sums(levels, beta, mid)[0]
            if total < count:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def energy_gap(beta):
        return gce_occupancy_sums(levels, beta, mu_for(beta))[1] - energy

    lo, hi = beta_lo, beta_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if energy_gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    beta = 0.5 * (lo + hi)
    return np.array([beta, mu_for(beta)])


def sphere_connection_reference(theta):
    """Metric connection of the unit-speed 2-sphere chart (textbook)."""
    t = theta[0]
    omega = np.zeros((2, 2, 2))
    omega[0, 1, 1] = -math.sin(t) * math.cos(t)
    omega[1, 0, 1] = omega[1, 1, 0] = math.cos(t) / math.sin(t)
    return omega


def levi_civita_from_metric(metric_fn, coords, h=1e-5):
    """Test-oracle Levi-Civita coefficients by central differences."""
    coords = np.asarray(coords, dtype=float)
    n = coords.size
    g = np.asarray(metric_fn(coords))
    ginv = np.linalg.inv(g)
    dg = np.empty((n, n, n))
    for a in range(n):
        up = coords.copy()
        up[a] += h
        down = coords.copy()
        down[a] -= h
        dg[a] = (np.asarray(metric_fn(up)) - np.asarray(metric_fn(down))) / (2.0 * h)
    gamma = np.empty((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                total = 0.0
                for s in range(n):
                    total += ginv[k, s] * (dg[i][s, j] + dg[j][i, s] - dg[s][i, j])
                gamma[k, i, j] = 0.5 * total
    return gamma


def gauge_fit_residual(numeric, closed_form):
    """Best affine map from closed-form values onto the numeric sample."""
    closed_form = np.asarray(closed_form, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    if closed_form.ndim == 1:
        closed_form = closed_form[:, None]
    design = np.column_stack([closed_form, np.ones(len(closed_form))])
    coeffs, *_ = np.linalg.lstsq(design, numeric, rcond=None)
    return float(np.max(np.abs(design @ coeffs - numeric)))


def random_couples(rng):
    """3 to 8 random (x, y) couples with non-degenerate abscissae."""
    n = int(rng.integers(3, 9))
    xs = np.sort(rng.uniform(-3.0, 3.0, size=n))
    xs[-1] += 0.5  # keep the abscissae non-degenerate
    ys = rng.uniform(-3.0, 3.0, size=n)
    return np.column_stack([xs, ys])


def random_dataset(model, rng):
    """A random data set the model's divergence can read, with D >= 0."""
    name = model.name
    if name.startswith("gaussian"):
        mean = rng.uniform(-2.0, 2.0)
        std = rng.uniform(0.3, 3.0)
        kind = rng.integers(0, 4)
        if kind == 0:
            return GaussianData(mean, std)
        if kind == 1:
            return TwoPointData(mean, std)
        if kind == 2:
            half = math.sqrt(3.0) * std
            return UniformData(mean - half, mean + half)
        return DataSet({"mean_x": mean, "mean_x2": std**2 + mean**2})
    if name.startswith("regression"):
        return RegressionData(random_couples(rng))
    if name == "gce":
        # occupancies of a random chart point, shifted inside the fibre so
        # the data stays in the model map's domain (not every occupation
        # list admits a fit; mean energy per particle is capped)
        levels = np.array([1.0, 2.0, 3.0])
        point = model.chart.random_points(rng, 1)[0]
        base = 1.0 / np.expm1(point[0] * (levels - point[1]))
        shift = np.array([1.0, -2.0, 1.0]) / math.sqrt(6.0)
        headroom = float(np.min(base / np.abs(shift)))
        occupations = base + rng.uniform(-0.5, 0.5) * headroom * shift
        return DataSet(occupation_totals(occupations, levels))
    if name == "gumbel":
        if rng.integers(0, 2) == 0:
            return GumbelData(rng.uniform(0.8, 3.0), rng.uniform(-1.0, 1.0))
        return ExponentialData(rng.uniform(0.5, 2.0))
    # vmf models: a fibre member of a random chart point
    point = model.chart.random_points(rng, 1)[0]
    return model.fibre_sampler(point)[0]


def random_chart_point(model, rng):
    return model.chart.random_points(rng, 1)[0]
