import math

import numpy as np
import pytest

from dsm_geom import geometry, models, transport
from dsm_geom.errors import NotFlat

from conftest import levi_civita_from_metric


class TestGeodesic:
    def test_gce_closed_form_endpoint(self, catalogue):
        trace = transport.geodesic(catalogue["gce"], [1.0, -1.0], [1.0, 0.5], 1.0)
        assert not trace.flags
        assert trace.end_point[0] == pytest.approx(2.0, abs=1e-9)
        assert trace.end_point[1] == pytest.approx(-0.75, abs=1e-6)
        closed = catalogue["gce"].oracle.geodesic([1.0, -1.0], [1.0, 0.5], 1.0)
        assert trace.end_point == pytest.approx(closed, abs=1e-6)

    def test_zero_velocity_is_constant(self, catalogue):
        trace = transport.geodesic(catalogue["gaussian-kl"], [0.3, 1.2], [0.0, 0.0], 1.0)
        assert np.max(np.abs(trace.points - trace.points[0])) == 0.0

    def test_flat_chart_straight_line(self, catalogue):
        trace = transport.geodesic(catalogue["regression-dlambda"], [0.0, 0.0], [1.0, 2.0], 1.0)
        assert trace.end_point == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_sphere_energy_conservation(self):
        # metric-connection oracle: the sphere connection preserves the
        # kinetic energy g(v, v) along its own geodesics
        sphere = models.build("vmf-sphere", kappa=2.0)
        trace = transport.geodesic(sphere, [1.0, 0.3], [0.2, 0.4], 1.0, step=2e-3)
        energies = [
            float(v @ sphere.oracle.metric(p) @ v)
            for p, v in zip(trace.points, trace.vectors)
        ]
        assert max(energies) - min(energies) < 1e-5 * energies[0]

    def test_sphere_connection_equals_levi_civita_oracle(self):
        sphere = models.build("vmf-sphere", kappa=2.0)
        for point in ([0.9, 0.1], [1.7, -0.6]):
            gamma = levi_civita_from_metric(sphere.oracle.metric, point)
            omega = geometry.connection_at(sphere, point).omega
            assert np.max(np.abs(gamma - omega)) < 1e-4

    def test_step_halving_changes_little(self, catalogue):
        gce = catalogue["gce"]
        coarse = transport.geodesic(gce, [1.0, -1.0], [1.0, 0.5], 1.0, step=2e-3)
        fine = transport.geodesic(gce, [1.0, -1.0], [1.0, 0.5], 1.0, step=1e-3)
        assert np.max(np.abs(coarse.end_point - fine.end_point)) < 1e-6

    def test_time_reversal_returns(self, catalogue):
        gce = catalogue["gce"]
        forward = transport.geodesic(gce, [1.0, -1.0], [0.8, 0.3], 1.0, step=2e-3)
        back = transport.geodesic(
            gce, forward.end_point, -forward.end_vector, 1.0, step=2e-3
        )
        assert np.max(np.abs(back.end_point - np.array([1.0, -1.0]))) < 1e-6

    def test_domain_exit_flagged(self, catalogue):
        # driving mu towards min(eps) leaves the numeric field's chart
        trace = transport.geodesic(catalogue["gce"], [1.0, 0.5], [0.0, 2.0], 1.0)
        assert "domain_exit" in trace.flags
        assert len(trace.points) < 1001


class TestParallelTransport:
    def test_zero_connection_keeps_vector(self, catalogue):
        trace = transport.parallel_transport(
            catalogue["regression-dlambda"],
            [np.array([0.0, 0.0]), np.array([1.5, -2.0])],
            [0.7, 0.3],
        )
        assert trace.end_vector == pytest.approx([0.7, 0.3], abs=1e-12)

    def test_gce_closed_form(self, catalogue):
        # v^mu(t) = (mu0 - mu(t)) / beta(t) * v^beta with mu0 set by the seed
        gce = catalogue["gce"]
        oracle_field = geometry.connection_field(gce, source="oracle")
        trace = transport.parallel_transport(
            gce,
            [np.array([1.0, 0.0]), np.array([2.0, 1.0])],
            [1.0, 0.0],
            connection=oracle_field,
        )
        assert trace.end_vector == pytest.approx([1.0, -0.5], abs=1e-5)
        closed = gce.oracle.covariant_field([1.0, 0.0], [1.0, 0.0], [2.0, 1.0])
        assert trace.end_vector == pytest.approx(closed, abs=1e-5)

    def test_sphere_latitude_holonomy(self):
        sphere = models.build("vmf-sphere", kappa=1.0)
        latitude = math.pi / 3
        loop = [np.array([latitude, phi]) for phi in np.linspace(0.0, 2.0 * math.pi, 9)]
        trace = transport.parallel_transport(sphere, loop, [1.0, 0.0], steps_per_segment=64)
        g = sphere.oracle.metric([latitude, 0.0])
        v0 = np.array([1.0, 0.0])
        v1 = trace.end_vector
        cos_angle = float(v0 @ g @ v1) / math.sqrt(
            float(v0 @ g @ v0) * float(v1 @ g @ v1)
        )
        angle = math.acos(max(-1.0, min(1.0, cos_angle)))
        assert angle == pytest.approx(2.0 * math.pi * (1.0 - math.cos(latitude)), abs=1e-3)


class TestCovariantConstantField:
    def test_gce_matches_closed_form(self, catalogue):
        gce = catalogue["gce"]
        grid = [
            np.array([beta, mu])
            for beta in np.linspace(0.5, 3.0, 3)
            for mu in np.linspace(-2.0, 0.9, 3)
        ]
        trace = transport.covariant_constant_field(
            gce, [1.0, 0.0], [1.0, 0.0], grid, steps_per_segment=64
        )
        for point, vector in zip(trace.points, trace.vectors):
            expected = gce.oracle.covariant_field([1.0, 0.0], [1.0, 0.0], point)
            assert vector == pytest.approx(expected, abs=1e-4)

    def test_zero_connection_constant_field(self, catalogue):
        grid = [np.array([a, b]) for a in (-1.0, 1.0) for b in (-1.0, 1.0)]
        trace = transport.covariant_constant_field(
            catalogue["regression-dlambda"], [0.0, 0.0], [0.4, -0.9], grid
        )
        assert np.max(np.abs(trace.vectors - np.array([0.4, -0.9]))) < 1e-12

    def test_gaussian_affine_frame(self, catalogue):
        # a canonical-frame vector stays the same canonical frame vector
        # under transport: flat torsionless connections transport affine
        # coordinate frames to themselves
        model = catalogue["gaussian-kl"]
        theta0 = np.array([0.0, 1.0])
        from dsm_geom import numdiff

        jac0 = numdiff.fd_jacobian(model.oracle.affine_map, theta0)
        seed = np.linalg.solve(jac0, np.array([1.0, 0.0]))
        grid = [np.array([mu, sigma]) for mu in (-0.5, 0.5) for sigma in (0.8, 1.6)]
        trace = transport.covariant_constant_field(
            model, theta0, seed, grid, steps_per_segment=64
        )
        for point, vector in zip(trace.points, trace.vectors):
            jac = numdiff.fd_jacobian(model.oracle.affine_map, point)
            assert jac @ vector == pytest.approx([1.0, 0.0], abs=1e-3)

    def test_sphere_raises_not_flat(self):
        sphere = models.build("vmf-sphere", kappa=1.0)
        grid = [np.array([1.0, 0.5]), np.array([1.5, 1.0])]
        with pytest.raises(NotFlat):
            transport.covariant_constant_field(
                sphere, [math.pi / 3, 0.0], [1.0, 0.0], grid, steps_per_segment=64
            )

    def test_detour_sees_curvature_beyond_two_dimensions(self):
        # the sphere connection in the first two axes, flat in the third:
        # the axis-aligned detour must differ from the straight path
        sphere = models.build("vmf-sphere", kappa=1.0)

        def omega(coords):
            out = np.zeros((3, 3, 3))
            out[:2, :2, :2] = sphere.oracle.connection(coords[:2])
            return out

        conn = geometry.ConnectionField(
            evaluate=omega,
            provenance="analytic-oracle",
            domain=sphere.chart.domain + ((-math.inf, math.inf),),
        )
        grid = [np.array([1.0, 0.5, 0.4]), np.array([1.5, 1.0, -0.3])]
        with pytest.raises(NotFlat):
            transport.covariant_constant_field(
                sphere, [math.pi / 3, 0.0, 0.0], [1.0, 0.0, 0.0], grid,
                connection=conn, steps_per_segment=64,
            )


    def test_detour_skips_zero_length_segments(self, catalogue):
        # the target shares mu with the base, so the detour is one segment:
        # 200 RK4 steps of 4 evaluations each for the straight path and the
        # detour (a zero-length corner used to cost another 800)
        model = catalogue["gaussian-kl"]
        oracle = geometry.connection_field(model, source="oracle")
        calls = []

        def counted(coords):
            calls.append(1)
            return oracle.evaluate(coords)

        conn = geometry.ConnectionField(
            evaluate=counted, provenance=oracle.provenance, domain=oracle.domain
        )
        trace = transport.covariant_constant_field(
            model, [0.0, 1.0], [1.0, 0.0], [np.array([0.0, 1.5])],
            connection=conn, steps_per_segment=200,
        )
        assert len(calls) == 1600
        assert trace.metadata["path_residual"] < 1e-12


class TestTraceFormat:
    def test_times_increase_and_points_in_chart(self, catalogue):
        trace = transport.geodesic(catalogue["gce"], [1.0, -1.0], [1.0, 0.5], 1.0, step=0.01)
        assert np.all(np.diff(trace.times) > 0)
        for point in trace.points:
            assert catalogue["gce"].chart.contains(point)
        assert trace.kind == "geodesic"
        assert trace.order == 4
