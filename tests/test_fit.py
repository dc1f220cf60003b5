import dataclasses
import math

import numpy as np
import pytest

from dsm_geom.core import (
    ChartSpec,
    DataSet,
    GaussianData,
    RegressionData,
    divergence_gradient,
)
from dsm_geom.errors import NoConvergence, Unsupported
from dsm_geom.fit import closed_form_fit, fit, fit_from_closed_form
from dsm_geom.models.gumbel import ExponentialData

from conftest import (
    gce_fit_bisection,
    least_squares_fit,
    random_dataset,
)


class TestFit:
    def test_gaussian_moments(self, catalogue):
        data = DataSet({"mean_x": 1.5, "mean_x2": 4.0 + 1.5**2})
        result = fit(catalogue["gaussian-kl"], data, [0.0, 1.0])
        assert result.converged
        assert result.theta_star == pytest.approx([1.5, 2.0], abs=1e-6)

    def test_regression_matches_normal_equations(self, catalogue):
        points = [[0.0, 1.0], [1.0, 3.0], [2.0, 5.0]]
        result = fit(catalogue["regression-ls"], RegressionData(points), [0.0, 0.0])
        assert result.theta_star == pytest.approx([2.0, 1.0], abs=1e-8)
        assert result.theta_star == pytest.approx(least_squares_fit(points), abs=1e-8)

    def test_gce_against_bisection_oracle(self, catalogue):
        levels = np.array([1.0, 2.0, 3.0])
        data = DataSet({"total_count": 1.5, "total_energy": 2.8})
        result = fit(catalogue["gce"], data, [1.0, 0.0])
        oracle = gce_fit_bisection(levels, 1.5, 2.8)
        assert result.theta_star == pytest.approx(oracle, abs=1e-6)
        grad = divergence_gradient(catalogue["gce"], data, result.theta_star)
        assert np.max(np.abs(grad)) < 1e-8

    def test_result_is_fibre_consistent(self, catalogue, rng):
        for name in ("gaussian-kl", "gaussian-sumsq", "regression-dlambda", "gce"):
            model = catalogue[name]
            x = random_dataset(model, rng)
            result = fit(model, x, model.chart.random_points(rng, 1)[0])
            for member in model.fibre_sampler(result.theta_star):
                grad = divergence_gradient(model, member, result.theta_star)
                assert np.max(np.abs(grad)) <= 1e-8, name

    def test_gaussian_kl_arrives_when_newton_decrease_is_rounding(self, catalogue):
        # once the Newton decrease is below rounding no Armijo step can pass;
        # the fit takes that step whole and stops instead of running out its
        # budget (6 of these 100 starts used to take all 200 iterations)
        model = catalogue["gaussian-kl"]
        result = fit(model, GaussianData(-0.4695, 0.9097), [0.2984, 2.0457])
        assert result.converged
        assert result.theta_star == pytest.approx([-0.4695, 0.9097], abs=1e-7)
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = GaussianData(rng.uniform(-1.0, 1.0), rng.uniform(0.7, 2.0))
            result = fit(model, x, [rng.uniform(-1.2, 1.2), rng.uniform(1.0, 2.5)])
            assert result.converged
            assert result.iterations < 20
            assert result.theta_star == pytest.approx(closed_form_fit(model, x), abs=1e-8)

    def test_newton_decrement_stop_lands_on_the_optimum(self, catalogue):
        # this fit used to run 200 iterations and stop with gradient 9.1e-9
        model = catalogue["gaussian-kl"]
        result = fit(model, GaussianData(-0.1032, 1.1405), [-0.533, 1.3395])
        assert result.converged
        assert result.iterations <= 10
        assert result.gradient_norm <= 1e-12

    def test_budget_exit_raises(self, catalogue):
        # a start across the phi = +-pi cut of the cylinder does not arrive
        model = catalogue["vmf-cylinder"]
        data = model.fibre_sampler(np.array([3.0, 1.0]))[0]
        with pytest.raises(NoConvergence, match="did not converge in 200 iterations"):
            fit(model, data, [-2.0, 1.0])

    def test_line_search_stall_raises(self, catalogue):
        # a gradient of the wrong sign sends every step uphill
        model = catalogue["gaussian-kl"]
        uphill = dataclasses.replace(model, gradient_fn=lambda *args: -model.gradient_fn(*args))
        with pytest.raises(NoConvergence, match="line search stalled"):
            fit(uphill, GaussianData(0.3, 1.2), [0.0, 1.0])

    def test_saddle_or_max_detected(self, catalogue):
        # the antipodal stationary point of the sphere divergence is a
        # maximum; starting there must not be reported as a fit
        sphere = catalogue["vmf-sphere"]
        data = sphere.fibre_sampler(np.array([math.pi / 3, 0.0]))[0]
        antipode = np.array([math.pi - math.pi / 3, math.pi])
        with pytest.raises(NoConvergence, match="not a local minimum"):
            fit(sphere, data, antipode)


class TestClosedFormFit:
    def test_two_point_regression(self, catalogue):
        data = RegressionData([[0.0, 0.0], [1.0, 2.0]])
        assert closed_form_fit(catalogue["regression-ls"], data) == pytest.approx(
            [2.0, 0.0]
        )

    def test_gumbel_exponential_data(self, catalogue):
        theta = closed_form_fit(catalogue["gumbel"], ExponentialData(1.0))
        golden = 0.5 * (1.0 + math.sqrt(5.0))
        assert theta[0] == pytest.approx(golden, abs=1e-12)
        assert theta[1] == pytest.approx(math.log((1.0 + golden)) / golden, abs=1e-12)

    def test_gaussian_self_fibre(self, catalogue):
        theta = closed_form_fit(catalogue["gaussian-kl"], GaussianData(0.7, 1.4))
        assert theta == pytest.approx([0.7, 1.4], abs=1e-12)

    def test_unsupported_without_closed_form(self, catalogue):
        data = DataSet({"total_count": 1.0, "total_energy": 2.0})
        with pytest.raises(Unsupported):
            closed_form_fit(catalogue["gce"], data)

    def test_fixed_point_of_iterative_fit(self, catalogue, rng):
        for name in (
            "gaussian-kl",
            "gaussian-sumsq",
            "regression-ls",
            "regression-dlambda",
            "vmf-sphere",
            "vmf-cylinder",
        ):
            model = catalogue[name]
            x = random_dataset(model, rng)
            result = fit_from_closed_form(model, x)
            assert result.converged
            assert result.iterations <= 2, name


class TestChartCovariance:
    def test_gaussian_fit_commutes_with_canonical_chart(self, catalogue, rng):
        model = catalogue["gaussian-kl"]
        forward = model.oracle.affine_map
        inverse = model.oracle.affine_inverse
        # gaussian-kl in its natural parameters z = (1 / (2 sigma^2), -mu / sigma^2):
        # FD derivatives, each mapped point checked against the (mu, sigma) chart,
        # and none of the callables that speak in (mu, sigma)
        wrapped = dataclasses.replace(
            model,
            name="gaussian-kl-natural",
            chart=ChartSpec(
                domain=((0.0, math.inf), (-math.inf, math.inf)),
                names=("z1", "z2"),
                sample_box=((0.05, 2.0), (-8.0, 8.0)),
            ),
            divergence_fn=lambda x, z: model.divergence_fn(x, model.chart.require(inverse(z))),
            gradient_fn=None,
            hessian_fn=None,
            fibre_sampler_fn=None,
            probe_pairs_fn=None,
            closed_form_fit_fn=None,
            oracle=None,
        )
        for _ in range(3):
            x = random_dataset(model, rng)
            direct = fit(model, x, np.array([0.0, 1.0])).theta_star
            canonical = fit(wrapped, x, forward(np.array([0.0, 1.0]))).theta_star
            assert forward(direct) == pytest.approx(canonical, abs=1e-6)
