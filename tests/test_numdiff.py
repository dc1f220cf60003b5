import math

import numpy as np
import pytest

from dsm_geom import numdiff
from dsm_geom.core import GaussianData
from dsm_geom.errors import NumericalFailure

from conftest import random_chart_point, random_dataset


class TestGradient:
    def test_polynomial_exact(self):
        grad = numdiff.fd_gradient(lambda t: t[0] * t[1], np.array([2.0, 3.0]))
        assert grad == pytest.approx([3.0, 2.0], abs=1e-8)

    def test_quadratic_exact(self, rng):
        matrix = rng.standard_normal((3, 3))
        matrix = matrix + matrix.T
        point = rng.standard_normal(3)
        grad = numdiff.fd_gradient(lambda t: 0.5 * t @ matrix @ t, point)
        assert np.max(np.abs(grad - matrix @ point)) < 1e-8

    def test_divergence_minimum(self, catalogue):
        kl = catalogue["gaussian-kl"]
        data = GaussianData(0.0, 1.0)
        grad = numdiff.fd_gradient(
            lambda t: kl.divergence_fn(data, t),
            np.array([0.0, 1.0]),
            kl.chart.domain,
        )
        assert np.max(np.abs(grad)) < 1e-6

    def test_gce_log_partition(self):
        levels = np.array([1.0, 2.0, 3.0])

        def log_partition(t):
            return float(-np.sum(np.log(-np.expm1(-t[0] * (levels - t[1])))))

        theta = np.array([1.0, 0.5])
        grad = numdiff.fd_gradient(log_partition, theta)
        analytic = -np.sum((levels - 0.5) / np.expm1(1.0 * (levels - 0.5)))
        assert grad[0] == pytest.approx(analytic, abs=1e-6)

    def test_stencil_shrinks_instead_of_crossing_boundary(self, catalogue):
        # near sigma = 0 the divergence is genuinely too stiff for FD; the
        # engine must refuse rather than step outside the chart
        kl = catalogue["gaussian-kl"]
        data = GaussianData(0.0, 1.0)
        domain = kl.chart.domain
        calls = []

        def watched(t):
            calls.append(t[1])
            return kl.divergence_fn(data, t)

        with pytest.raises(NumericalFailure):
            numdiff.fd_gradient(watched, np.array([0.0, 2e-4]), domain)
        assert min(calls) > 0.0

    def test_one_sided_at_boundary(self):
        # smooth across the bound; the stencil still must not cross it
        domain = ((-math.inf, math.inf), (0.0, math.inf))
        calls = []

        def smooth(t):
            calls.append(t[1])
            return math.sin(t[1]) + t[0] ** 2

        grad = numdiff.fd_gradient(smooth, np.array([0.5, 1e-8]), domain)
        assert min(calls) >= 0.0
        assert grad[1] == pytest.approx(1.0, abs=1e-5)

    def test_richardson_disagreement_raises(self):
        def kinked(t):
            return abs(t[0] - 1.000013)

        with pytest.raises(NumericalFailure):
            numdiff.fd_gradient(kinked, np.array([1.0]))


class TestBoundary:
    # axis 1 lives in the open interval (0, 3); axis 0 is unbounded
    DOMAIN = ((-math.inf, math.inf), (0.0, 3.0))

    @staticmethod
    def scalar(t):
        return math.sin(t[0]) * math.exp(t[1]), np.array(
            [math.cos(t[0]) * math.exp(t[1]), math.sin(t[0]) * math.exp(t[1])]
        )

    @staticmethod
    def tensor(t):
        wave, cross = math.sin(t[0]) * math.exp(t[1]), t[0] * t[1] ** 2
        value = np.array([[wave, cross], [cross, math.cos(t[1])]])
        jac = np.empty((2, 2, 2))  # jac[a, b, i] = d_i value[a, b]
        jac[:, :, 0] = [[math.cos(t[0]) * math.exp(t[1]), t[1] ** 2], [t[1] ** 2, 0.0]]
        jac[:, :, 1] = [[wave, 2 * t[0] * t[1]], [2 * t[0] * t[1], -math.sin(t[1])]]
        return value, jac

    @pytest.mark.parametrize("rank", [0, 2])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("distance", [1e-8, 1.5e-7, 2.2e-4, 1e-2])
    def test_stencil_stays_inside_and_matches(self, rank, side, distance):
        # closer than 2.5 floor steps (2.5e-7) the stencil is one-sided; at
        # 2.2e-4 the central step shrinks to fit; at 1e-2 it is the full step
        point = np.array([0.4, distance if side == "lower" else 3.0 - distance])
        exact = self.scalar if rank == 0 else self.tensor
        seen = []

        def field(t):
            seen.append(t[1])
            return exact(t)[0]

        derive = numdiff.fd_gradient if rank == 0 else numdiff.fd_jacobian
        result = derive(field, point, self.DOMAIN)
        assert 0.0 < min(seen) and max(seen) < 3.0
        assert np.max(np.abs(result - exact(point)[1])) < 1e-5

    def test_hessian_refused_where_no_stencil_fits(self):
        with pytest.raises(NumericalFailure, match="no Hessian stencil"):
            numdiff.fd_hessian(lambda t: t[1] ** 2, np.array([0.4, 1e-8]), self.DOMAIN)


class TestHessian:
    def test_rank_one_quadratic(self):
        hess = numdiff.fd_hessian(lambda t: 0.5 * t[0] ** 2, np.array([0.7, -0.2]))
        assert hess == pytest.approx(np.array([[1.0, 0.0], [0.0, 0.0]]), abs=1e-6)

    def test_gaussian_divergence_hessian(self, catalogue):
        kl = catalogue["gaussian-kl"]
        data = GaussianData(0.0, 1.0)
        hess = numdiff.fd_hessian(
            lambda t: kl.divergence_fn(data, t),
            np.array([0.0, 1.0]),
            kl.chart.domain,
        )
        assert hess == pytest.approx(np.diag([1.0, 2.0]), abs=1e-4)

    def test_cylinder_potential(self):
        kappa = 2.0

        def potential(t):
            return 0.5 * kappa * t[0] ** 2 - math.log(t[1])

        hess = numdiff.fd_hessian(potential, np.array([0.3, 1.0]))
        assert hess == pytest.approx(np.diag([2.0, 1.0]), abs=1e-5)

    def test_symmetric_output(self, rng):
        matrix = rng.standard_normal((3, 3))

        def bumpy(t):
            return float(np.sin(t @ matrix @ t) + t[0] * t[1] * t[2])

        hess = numdiff.fd_hessian(bumpy, rng.standard_normal(3))
        assert np.array_equal(hess, hess.T)

    def test_step_halving_robust_on_divergences(self, catalogue, rng, monkeypatch):
        for model in catalogue.values():
            chart = model.chart
            for _ in range(10):
                x = random_dataset(model, rng)
                theta = random_chart_point(model, rng)
                monkeypatch.setattr(numdiff, "REL_STEP", 1e-4)
                coarse = numdiff.fd_hessian(
                    lambda t: model.divergence_fn(x, t),
                    theta,
                    chart.domain,
                )
                monkeypatch.setattr(numdiff, "REL_STEP", 5e-5)
                fine = numdiff.fd_hessian(
                    lambda t: model.divergence_fn(x, t),
                    theta,
                    chart.domain,
                )
                scale = max(np.max(np.abs(coarse)), 1.0)
                assert np.max(np.abs(coarse - fine)) / scale < 1e-4, model.name


class TestFieldDerivative:
    def test_constant_field(self):
        field = lambda t: np.diag([4.0, 1.0])
        result = numdiff.fd_field_derivative(field, np.array([0.3, 0.4]), 0)
        assert np.max(np.abs(result)) < 1e-8

    def test_sphere_metric_derivative(self):
        field = lambda t: np.array([[1.0, 0.0], [0.0, math.sin(t[0]) ** 2]])
        result = numdiff.fd_field_derivative(field, np.array([math.pi / 4, 0.0]), 0)
        assert result[1, 1] == pytest.approx(1.0, abs=1e-6)

    def test_gce_connection_derivative(self):
        def field(t):
            omega = np.zeros((2, 2, 2))
            omega[1, 0, 1] = omega[1, 1, 0] = 1.0 / t[0]
            return omega

        result = numdiff.fd_field_derivative(field, np.array([2.0, 0.0]), 0)
        assert result[1, 0, 1] == pytest.approx(-0.25, abs=1e-5)


class TestJacobian:
    def test_linear_map(self, rng):
        matrix = rng.standard_normal((2, 2))
        jac = numdiff.fd_jacobian(lambda t: matrix @ t, np.array([0.3, -0.7]))
        assert np.max(np.abs(jac - matrix)) < 1e-8

    def test_canonical_gaussian_map(self, catalogue):
        forward = catalogue["gaussian-kl"].oracle.affine_map
        jac = numdiff.fd_jacobian(forward, np.array([0.0, 1.0]))
        assert jac == pytest.approx(np.array([[0.0, -1.0], [-1.0, 0.0]]), abs=1e-8)
