import math

import numpy as np
import pytest

from dsm_geom import geometry, models, transport
from dsm_geom.errors import DomainError, NotFlat, NumericalFailure

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

    def test_step_budget_raises_before_any_evaluation(self, catalogue):
        gce = catalogue["gce"]
        conn, calls = counting_oracle_field(gce)
        with pytest.raises(NumericalFailure, match="budget"):
            transport.geodesic(gce, [1.0, -1.0], [1.0, 0.5], 1.0, step=1e-9, connection=conn)
        assert calls == []

    @pytest.mark.parametrize("source", ["fibre", "oracle"])
    def test_wrong_dimension_start_or_velocity_raises(self, catalogue, source):
        # a 3-vector used to zip against the 2-d domain: a one-point
        # domain_exit trace (fibre) or a numpy ValueError (oracle)
        gce = catalogue["gce"]
        conn = geometry.connection_field(gce, source=source)
        cases = (([1.0, -1.0, 7.0], [1.0, 0.5, 0.0]), ([1.0, -1.0], [1.0, 0.5, 0.0]))
        for start, velocity in cases:
            with pytest.raises(DomainError) as excinfo:
                transport.geodesic(gce, start, velocity, 1.0, connection=conn)
            assert "\n" not in str(excinfo.value)
        assert not conn.contains([1.0, -1.0, 7.0])


def counting_oracle_field(model):
    """The model's oracle connection field, recording each evaluation."""
    oracle = geometry.connection_field(model, source="oracle")
    calls = []

    def counted(coords):
        calls.append(1)
        return oracle.evaluate(coords)

    conn = geometry.ConnectionField(
        evaluate=counted, provenance=oracle.provenance, domain=oracle.domain
    )
    return conn, calls


class TestParallelTransport:
    def test_waypoint_outside_domain_raises_before_any_evaluation(self, catalogue):
        # beta = -0.5 is outside the field domain beta > 0; the straight
        # path used to run until a step crossed the bound
        gce = catalogue["gce"]
        conn, calls = counting_oracle_field(gce)
        with pytest.raises(DomainError, match="way point"):
            transport.parallel_transport(
                gce, [np.array([1.0, 0.0]), np.array([-0.5, 0.0])], [1.0, 0.0],
                connection=conn,
            )
        assert calls == []

    def test_zero_length_path_is_one_sample(self, catalogue):
        model = catalogue["gaussian-kl"]
        conn, calls = counting_oracle_field(model)
        a = np.array([0.3, 1.2])
        trace = transport.parallel_transport(model, [a, a], [0.7, -0.2], connection=conn)
        assert len(trace.times) == 1 and calls == []
        assert trace.end_point.tolist() == [0.3, 1.2]
        assert trace.end_vector.tolist() == [0.7, -0.2]

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
        trace = transport.parallel_transport(sphere, loop, [1.0, 0.0])
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
        trace = transport.covariant_constant_field(gce, [1.0, 0.0], [1.0, 0.0], grid)
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
        trace = transport.covariant_constant_field(model, theta0, seed, grid)
        for point, vector in zip(trace.points, trace.vectors):
            jac = numdiff.fd_jacobian(model.oracle.affine_map, point)
            assert jac @ vector == pytest.approx([1.0, 0.0], abs=1e-3)

    def test_sphere_raises_not_flat(self):
        sphere = models.build("vmf-sphere", kappa=1.0)
        grid = [np.array([1.0, 0.5]), np.array([1.5, 1.0])]
        with pytest.raises(NotFlat):
            transport.covariant_constant_field(
                sphere, [math.pi / 3, 0.0], [1.0, 0.0], grid
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
                connection=conn,
            )


    def test_detour_skips_zero_length_segments(self, catalogue):
        # the target shares mu with the base, so the detour is one segment:
        # the straight path and the detour each sample 9 Lobatto nodes, then
        # the 8 new ones of the 17-node level, whose end state agrees
        # (a zero-length corner would cost another 17)
        model = catalogue["gaussian-kl"]
        conn, calls = counting_oracle_field(model)
        trace = transport.covariant_constant_field(
            model, [0.0, 1.0], [1.0, 0.0], [np.array([0.0, 1.5])], connection=conn
        )
        assert len(calls) == 2 * (9 + 8)
        assert trace.metadata["path_residual"] < 1e-12


class TestSegmentSampling:
    def test_smooth_segment_costs_two_nested_levels(self, catalogue):
        # 9 Lobatto nodes, then only the 8 new nodes of the 17-node level
        # (the 9 are among its nodes), whose end state agrees with the first
        model = catalogue["gaussian-kl"]
        conn, calls = counting_oracle_field(model)
        transport.parallel_transport(
            model, [np.array([0.0, 1.0]), np.array([0.5, 1.4])], [1.0, 0.0], connection=conn
        )
        assert len(calls) == 9 + 8

    def test_jump_in_the_field_fails_within_the_node_budget(self, catalogue):
        # the connection jumps at s = 0.37: the pieces holding the jump never
        # settle, so the segment is halved down to [0.359375, 0.375], where
        # it fails.  Seven failing pieces at 65 nodes each and four smooth
        # pieces settled at 17 cost 7 * 65 + 4 * 17 = 523 evaluations
        model = catalogue["gaussian-kl"]
        oracle = geometry.connection_field(model, source="oracle")
        calls = []

        def jumping(coords):
            calls.append(1)
            return oracle.evaluate(coords) + (coords[0] > 0.37)

        conn = geometry.ConnectionField(
            evaluate=jumping, provenance=oracle.provenance, domain=oracle.domain
        )
        with pytest.raises(NumericalFailure, match="65 Chebyshev nodes") as excinfo:
            transport.parallel_transport(
                model, [np.array([0.0, 1.0]), np.array([1.0, 1.0])], [1.0, 0.0],
                connection=conn,
            )
        assert "\n" not in str(excinfo.value)
        assert "[0.0, 1.0] -> [1.0, 1.0]" in str(excinfo.value)
        assert len(calls) == 523


    def test_gaussian_transport_is_exact_at_the_nodes(self, catalogue):
        # transport keeps J v constant, J the Jacobian of the affine map
        # (1 / (2 sigma^2), -mu / sigma^2), so (1, 0) at (0, 1) ends as
        # (sigma^2, 0); one row per node of the accepted 17-node level after
        # s = 0, plus the start
        trace = transport.parallel_transport(
            catalogue["gaussian-kl"], [np.array([0.0, 1.0]), np.array([3.0, 0.05])],
            [1.0, 0.0],
        )
        assert np.max(np.abs(trace.end_vector - [0.0025, 0.0])) <= 1e-12
        assert len(trace.times) == 17


class TestTraceFormat:
    def test_times_increase_and_points_in_chart(self, catalogue):
        trace = transport.geodesic(catalogue["gce"], [1.0, -1.0], [1.0, 0.5], 1.0, step=0.01)
        assert np.all(np.diff(trace.times) > 0)
        for point in trace.points:
            assert catalogue["gce"].chart.contains(point)
        assert trace.kind == "geodesic"
