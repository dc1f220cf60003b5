import math

import numpy as np
import pytest

from dsm_geom.core import (
    ExponentialData,
    GaussianData,
    MomentData,
    OccupationData,
    RegressionData,
    divergence_gradient,
)
from dsm_geom.errors import NoConvergence, Unsupported
from dsm_geom.fit import closed_form_fit, fit, fit_from_closed_form
from dsm_geom.geometry import canonical_chart_for, reparametrized_model

from conftest import (
    gce_fit_bisection,
    least_squares_fit,
    random_dataset,
)


class TestFit:
    def test_gaussian_moments(self, catalogue):
        data = MomentData({"mean_x": 1.5, "mean_x2": 4.0 + 1.5**2})
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
        data = MomentData({"total_count": 1.5, "total_energy": 2.8})
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
            for member in model.fibre_sampler(result.theta_star, model.fibre_capacity):
                grad = divergence_gradient(model, member, result.theta_star)
                assert np.max(np.abs(grad)) <= 1e-8, name

    def test_saddle_or_max_detected(self, catalogue):
        # the antipodal stationary point of the sphere divergence is a
        # maximum; starting there must not be reported as a fit
        sphere = catalogue["vmf-sphere"]
        data = sphere.fibre_sampler(np.array([math.pi / 3, 0.0]), 1)[0]
        antipode = np.array([math.pi - math.pi / 3, math.pi])
        with pytest.raises(NoConvergence) as excinfo:
            fit(sphere, data, antipode)
        assert excinfo.value.reason == "SaddleOrMax"


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
        data = MomentData({"total_count": 1.0, "total_energy": 2.0})
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
        wrapped = reparametrized_model(
            model, forward, inverse, canonical_chart_for(model)
        )
        for _ in range(3):
            x = random_dataset(model, rng)
            direct = fit(model, x, np.array([0.0, 1.0])).theta_star
            canonical = fit(wrapped, x, forward(np.array([0.0, 1.0]))).theta_star
            assert forward(direct) == pytest.approx(canonical, abs=1e-6)
