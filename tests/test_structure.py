import dataclasses
import math

import numpy as np
import pytest

from dsm_geom import geometry, models, numdiff, structure, transport
from dsm_geom.core import Tolerances
from dsm_geom.errors import DomainError, NotFlat, NotIntegrable
from dsm_geom.geometry import connection_field, metric_field

from conftest import (
    HESSIAN_STRUCTURED,
    gauge_fit_residual,
    gaussian_kl_closed_form,
    random_chart_point,
)


class TestClassify:
    def test_gaussian_grid_is_exponential_family(self, catalogue):
        grid = [
            np.array([mu, sigma])
            for mu in np.linspace(-1.0, 1.0, 5)
            for sigma in np.linspace(0.5, 3.0, 5)
        ]
        report = structure.classify(catalogue["gaussian-kl"], theta_grid=grid)
        assert report.condition4["status"] == "pass"
        assert report.hessian_structure == "pass"
        assert report.exponential_family == "yes"

    def test_sphere_fails_flatness_only(self):
        report = structure.classify(models.build("vmf-sphere", kappa=2.0))
        assert report.condition4["status"] == "pass"
        assert report.probe_consistency["status"] == "pass"
        assert report.flat["status"] == "fail"
        assert report.flat["max_curvature"] > 1e-2
        assert report.exponential_family == "no"

    def test_gumbel_fails_condition4_with_ratio(self, catalogue):
        report = structure.classify(catalogue["gumbel"])
        assert report.condition4["status"] == "fail"
        evidence = report.condition4["evidence"]
        assert evidence["varying_ratio"] == pytest.approx(1.64, abs=0.01)
        assert report.exponential_family == "no"

    def test_verdict_consistency_across_catalogue(self, catalogue):
        expected = {
            "gaussian-kl": "yes",
            "gce": "yes",
            "vmf-cylinder": "yes",
            "vmf-sphere": "no",
            "gumbel": "no",
            "gaussian-sumsq": "not-applicable",
            "regression-ls": "not-applicable",
            "regression-dlambda": "not-applicable",
        }
        condition4_fails = {"regression-ls", "gumbel"}
        for name, model in catalogue.items():
            report = structure.classify(model, theta_grid=structure.default_grid(model, 3))
            assert report.exponential_family == expected[name], name
            assert report.condition4["status"] == ("fail" if name in condition4_fails else "pass"), name

    def test_report_serialises(self, catalogue):
        report = structure.classify(
            catalogue["regression-dlambda"],
            theta_grid=structure.default_grid(catalogue["regression-dlambda"], 2),
        )
        payload = report.to_dict()
        assert payload["hessian_structure"] == "pass"
        assert payload["condition4"]["status"] == "pass"


    def test_empty_grid_raises(self, catalogue):
        # an empty grid used to pass every check without evaluating one
        with pytest.raises(DomainError, match="grid point"):
            structure.classify(catalogue["regression-ls"], theta_grid=[])

    def test_tolerances_reach_every_gate(self, catalogue):
        model = catalogue["regression-ls"]
        grid = structure.default_grid(model, 2)
        assert structure.classify(model, theta_grid=grid).verdicts["condition4"] == "fail"
        report = structure.classify(model, theta_grid=grid, tol=Tolerances(cond4=1.0))
        assert report.verdicts == {
            "condition4": "pass",
            "hessian_structure": "pass",
            "exponential_family": "not-applicable",
        }
        assert report.tolerances["cond4"] == 1.0


class TestAffineCoordinates:
    @pytest.mark.parametrize(
        "name,theta0",
        [
            ("gce", [1.0, 0.0]),
            ("gaussian-kl", [0.0, 1.0]),
            ("gaussian-sumsq", [0.0, 1.0]),
        ],
    )
    def test_matches_closed_form_up_to_gauge(self, catalogue, rng, name, theta0):
        model = catalogue[name]
        targets = model.chart.random_points(rng, 10)
        amap = structure.affine_coordinates(model, theta0, targets)
        closed = [model.oracle.affine_map(t) for t in targets]
        assert gauge_fit_residual(amap.values, closed) < 1e-4
        assert max(amap.path_residuals) < 1e-4

    def test_gce_example_point(self, catalogue):
        amap = structure.affine_coordinates(catalogue["gce"], [1.0, 0.0], [[2.0, 0.3]])
        # closed form (beta, -beta mu) - (1, 0), gauge-rotated by the
        # inverse Jacobian at theta0 = diag(1, -1)
        assert amap.values[0] == pytest.approx([1.0, 0.6], abs=1e-4)

    def test_gce_matches_closed_form_tightly(self, catalogue):
        # affine map (beta, -beta mu) with Jacobian [[1, 0], [-mu, -beta]];
        # the gauge Theta(theta0) = 0, dTheta(theta0) = I fixes J(theta0)^-1
        gce = catalogue["gce"]
        theta0 = np.array([1.5, -0.5])

        def jacobian(point):
            beta, mu = point
            return np.array([[1.0, 0.0], [-mu, -beta]])

        inverse = np.linalg.inv(jacobian(theta0))
        targets = [np.array(t) for t in ([2.0, 0.3], [0.7, -1.2], [2.6, 0.8])]
        amap = structure.affine_coordinates(gce, theta0, targets)
        for target, value, gradient in zip(targets, amap.values, amap.gradients):
            shift = gce.oracle.affine_map(target) - gce.oracle.affine_map(theta0)
            assert np.max(np.abs(value - inverse @ shift)) <= 1e-10
            assert np.max(np.abs(gradient - inverse @ jacobian(target))) <= 1e-10

    def test_gaussian_matches_closed_form_tightly(self, catalogue):
        # affine map (1 / (2 sigma^2), -mu / sigma^2) with Jacobian
        # [[0, -1 / sigma^3], [-1 / sigma^2, 2 mu / sigma^3]]; the gauge
        # Theta(theta0) = 0, dTheta(theta0) = I fixes J(theta0)^-1
        model = catalogue["gaussian-kl"]
        theta0 = np.array([0.0, 1.0])

        def jacobian(point):
            mu, sigma = point
            return np.array([[0.0, -1.0 / sigma**3], [-1.0 / sigma**2, 2.0 * mu / sigma**3]])

        inverse = np.linalg.inv(jacobian(theta0))
        targets = [np.array(t) for t in ([0.4, 1.5], [-0.7, 0.6], [1.0, 0.5], [2.0, 2.5])]
        amap = structure.affine_coordinates(model, theta0, targets)
        for target, value, gradient in zip(targets, amap.values, amap.gradients):
            shift = model.oracle.affine_map(target) - model.oracle.affine_map(theta0)
            assert np.max(np.abs(value - inverse @ shift)) <= 1e-12
            assert np.max(np.abs(gradient - inverse @ jacobian(target))) <= 1e-12

    def test_transformed_connection_vanishes(self, catalogue):
        # chain rule with FD Jacobians of the sampled map: in the affine
        # coordinates the connection coefficients must vanish, i.e. the
        # map's second derivative equals the omega-transported Jacobian
        model = catalogue["gaussian-kl"]
        theta0 = np.array([0.0, 1.0])
        conn = connection_field(model)
        domain = model.chart.domain
        n = 2
        for target in ([0.4, 1.4], [-0.3, 0.8]):
            target = np.array(target)
            amap = structure.affine_coordinates(model, theta0, [target])
            jac = amap.gradients[0]  # jac[j, b] = d Theta^j / d zeta^b
            omega = conn(target)
            state = np.concatenate([jac.ravel(), amap.values[0]])

            def map_gradient(point):
                # continue the sampled map from the target: cheap and
                # path-independent on this flat model
                moved = structure._integrate_affine(conn, [target, point], state.copy())
                return moved[: n * n].reshape(n, n)

            hess = np.empty((n, n, n))  # hess[j, a, b] = d_a d_b Theta^j
            for a in range(n):
                hess[:, a, :] = numdiff.fd_field_derivative(map_gradient, target, a, domain)
            residual = np.einsum("cab,jc->jab", omega, jac) - hess
            assert np.max(np.abs(residual)) < 1e-3

    def test_not_flat_raises(self):
        sphere = models.build("vmf-sphere", kappa=2.0)
        with pytest.raises(NotFlat):
            structure.affine_coordinates(
                sphere, [math.pi / 3, 0.0], [[math.pi / 2, 1.0]]
            )


class TestMassieu:
    def test_cylinder_matches_closed_form(self):
        cylinder = models.build("vmf-cylinder", kappa=2.0)
        sample = structure.massieu(cylinder, [0.0, 1.0], [[0.4, 1.5]])
        closed = 0.5 * 2.0 * 0.4**2 - math.log(1.5)
        # remove the affine gauge fixed at theta0
        gauge = -np.array([0.0, -1.0]) @ (np.array([0.4, 1.5]) - np.array([0.0, 1.0]))
        assert sample.potentials[0] - gauge == pytest.approx(closed, abs=1e-3)
        assert max(sample.hessian_residuals) < 1e-3
        assert max(sample.curl_residuals) < 1e-5

    def test_cost_of_one_verified_target(self):
        cylinder = models.build("vmf-cylinder", kappa=2.0)
        calls = {"gradient": 0, "hessian": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        counted_model = dataclasses.replace(
            cylinder,
            gradient_fn=counted("gradient", cylinder.gradient_fn),
            hessian_fn=counted("hessian", cylinder.hessian_fn),
        )
        theta0, targets = [0.0, 1.0], [[0.4, 1.5]]  # the target moves both coordinates
        verified = structure.massieu(counted_model, theta0, targets)
        # Each chart point costs one gated connection evaluation: 3 fibre
        # Hessians plus 2 probe pairs (2 gradients, 2 Hessians each), so
        # 4 gradients and 7 Hessians.  The points: 51 on the paths (the
        # straight segment and the two detour segments each sample 9
        # Lobatto nodes, then the 8 new ones of the 17-node level, whose end
        # state agrees), 32 continuation points (16 distinct off-centre FD
        # stencil points, each at the new Lobatto nodes s = 1/2 and 1 of a
        # one-step segment) and the target itself (the s = 0 node of every
        # continuation).
        points = 3 * (9 + 8) + 16 * 2 + 1
        assert calls == {"gradient": 4 * points, "hessian": 7 * points}
        assert calls == {"gradient": 336, "hessian": 588}
        plain = structure.massieu(cylinder, theta0, targets, verify=False)
        assert verified.potentials == plain.potentials
        assert np.array_equal(verified.covectors[0], plain.covectors[0])

    def test_continuation_is_the_plain_rk4_step(self):
        # the verification's 3-node segment samples exactly the RK4 stage
        # points s = 0, 1/2, 1; its Lobatto IIIA solve and the RK4 step that
        # calls the field at each stage are both 4th order, and on steps of
        # 1e-4 they agree to rounding
        cylinder = models.build("vmf-cylinder", kappa=2.0)

        def local(point):
            evaluation = geometry.connection_at(cylinder, point, check_consistency=False)
            return np.concatenate([evaluation.metric.matrix.ravel(), evaluation.omega.ravel()])

        target, state = np.array([0.4, 1.5]), np.array([0.3, -0.2, 0.7])
        for step in ([1e-4, 0.0], [1e-4, 1.5e-4], [-2e-4, 3e-5]):
            delta = (target + np.array(step)) - target

            def field_at_stages(s, y):
                return structure._massieu_rhs(local(target + s * delta), delta, y)

            (_, plain), = transport._integrate(field_at_stages, state, 1.0, 1)
            run = transport._segment(
                structure._massieu_rhs, local, target, delta, state, 3, {0: local(target)}
            )
            assert np.max(np.abs(run[-1][1] - plain)) <= 1e-15

    def test_dlambda_quadratic_potential(self, catalogue):
        sample = structure.massieu(catalogue["regression-dlambda"], [0.0, 0.0], [[1.0, 1.0]])
        assert sample.potentials[0] == pytest.approx(1.0, abs=1e-6)

    def test_gauge_at_reference(self, catalogue):
        sample = structure.massieu(
            catalogue["regression-dlambda"], [0.0, 0.0], [[0.0, 0.0]], verify=False
        )
        assert sample.potentials[0] == 0.0
        assert np.all(sample.covectors[0] == 0.0)

    def test_convex_in_affine_coordinates(self, catalogue, rng):
        # midpoint inequality, checked in the affine chart where the
        # potential is guaranteed convex
        for name, segments in (
            ("vmf-cylinder", 10),
            ("gaussian-kl", 3),
            ("regression-dlambda", 3),
        ):
            model = catalogue[name]
            theta0 = np.array(
                [0.5 * (lo + hi) for lo, hi in model.chart.sample_box]
            )
            inverse = model.oracle.affine_inverse
            forward = model.oracle.affine_map
            for _ in range(segments):
                a = forward(random_chart_point(model, rng))
                b = forward(random_chart_point(model, rng))
                mid = 0.5 * (a + b)
                points = [inverse(z) for z in (a, b, mid)]
                sample = structure.massieu(model, theta0, points, verify=False)
                phi_a, phi_b, phi_mid = sample.potentials
                assert phi_mid <= 0.5 * (phi_a + phi_b) + 1e-7, name

    def test_not_integrable_on_sphere(self):
        sphere = models.build("vmf-sphere", kappa=2.0)
        with pytest.raises((NotIntegrable, NotFlat)):
            structure.massieu(sphere, [math.pi / 3, 0.0], [[math.pi / 2, 1.0]])


class TestPythagorean:
    def test_gaussian_example(self, catalogue):
        report = structure.pythagorean_check(catalogue["gaussian-kl"], [0.0, 1.0], [1.0, 1.0])
        assert report.max_deviation < 1e-8
        assert report.induced_value == pytest.approx(
            gaussian_kl_closed_form(0.0, 1.0, 1.0, 1.0), abs=1e-10
        )

    def test_self_divergence_zero(self, catalogue):
        report = structure.pythagorean_check(catalogue["gaussian-kl"], [0.0, 1.0], [0.0, 1.0])
        assert abs(report.induced_value) < 1e-12

    def test_gce_example(self, catalogue):
        report = structure.pythagorean_check(catalogue["gce"], [1.0, 0.2], [1.2, 0.1])
        assert report.max_deviation < 1e-8

    def test_fibre_constancy_property(self, catalogue, rng):
        for name in HESSIAN_STRUCTURED:
            model = catalogue[name]
            for _ in range(10):
                theta = random_chart_point(model, rng)
                other = random_chart_point(model, rng)
                report = structure.pythagorean_check(model, theta, other)
                assert report.max_deviation < 1e-6, name
                assert report.induced_value > -1e-10, name


class TestInducedGeometry:
    @pytest.mark.parametrize(
        "name,point,tol",
        [
            ("gaussian-kl", [0.0, 1.0], 1e-3),
            ("regression-dlambda", [0.0, 0.0], 1e-6),
            ("gce", [1.0, 0.5], 1e-3),
        ],
    )
    def test_residuals(self, catalogue, name, point, tol):
        metric_res, connection_res = structure.induced_divergence_geometry_check(
            catalogue[name], point
        )
        assert metric_res < tol
        assert connection_res < tol
