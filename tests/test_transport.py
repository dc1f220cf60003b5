import dataclasses
import math

import numpy as np
import pytest

from dsm_geom import Tolerances, geometry, models, structure, transport
from dsm_geom.core import in_open_box, passes
from dsm_geom.errors import Condition4Violated, DomainError, NumericalFailure

from conftest import RAISE_FP_ERRORS, counted_model, levi_civita_from_metric


class TestGeodesic:
    def test_zero_span_raises_before_any_evaluation(self, catalogue):
        # t_end = 0 makes the default step 0
        conn, calls = counting_oracle_field(catalogue["gce"])
        with pytest.raises(DomainError, match="step > 0, got t_end 0.0 and step 0.0"):
            transport.geodesic(conn, [1.0, -1.0], [1.0, 0.5], 0.0)
        assert calls == []

    def test_zero_span_with_a_step_is_the_start_alone(self, catalogue):
        # it took one RK4 step of size 0: four field evaluations and two t = 0 rows
        conn, calls = counting_oracle_field(catalogue["gce"])
        trace = transport.geodesic(conn, [1.0, -1.0], [1.0, 0.5], 0.0, step=0.1)
        assert calls == []
        assert trace.times.tolist() == [0.0]
        assert trace.points.tolist() == [[1.0, -1.0]]
        assert trace.vectors.tolist() == [[1.0, 0.5]]
        assert trace.flags == ()

    def test_gce_closed_form_endpoint(self, catalogue):
        trace = transport.geodesic(
            geometry.connection_field(catalogue["gce"]), [1.0, -1.0], [1.0, 0.5], 1.0
        )
        assert not trace.flags
        assert trace.end_point[0] == pytest.approx(2.0, abs=1e-9)
        assert trace.end_point[1] == pytest.approx(-0.75, abs=1e-6)
        closed = catalogue["gce"].oracle.geodesic([1.0, -1.0], [1.0, 0.5], 1.0)
        assert trace.end_point == pytest.approx(closed, abs=1e-6)

    def test_zero_velocity_is_constant(self, catalogue):
        trace = transport.geodesic(
            geometry.connection_field(catalogue["gaussian-kl"]), [0.3, 1.2], [0.0, 0.0], 1.0
        )
        assert np.max(np.abs(trace.points - trace.points[0])) == 0.0

    def test_flat_chart_straight_line(self, catalogue):
        trace = transport.geodesic(
            geometry.connection_field(catalogue["regression-dlambda"]), [0.0, 0.0], [1.0, 2.0], 1.0
        )
        assert trace.end_point == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_sphere_energy_conservation(self):
        # metric-connection oracle: the sphere connection preserves the
        # kinetic energy g(v, v) along its own geodesics
        sphere = models.build("vmf-sphere", kappa=2.0)
        trace = transport.geodesic(
            geometry.connection_field(sphere), [1.0, 0.3], [0.2, 0.4], 1.0, step=2e-3
        )
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
        conn = geometry.connection_field(catalogue["gce"])
        coarse = transport.geodesic(conn, [1.0, -1.0], [1.0, 0.5], 1.0, step=2e-3)
        fine = transport.geodesic(conn, [1.0, -1.0], [1.0, 0.5], 1.0, step=1e-3)
        assert np.max(np.abs(coarse.end_point - fine.end_point)) < 1e-6

    def test_time_reversal_returns(self, catalogue):
        conn = geometry.connection_field(catalogue["gce"])
        forward = transport.geodesic(conn, [1.0, -1.0], [0.8, 0.3], 1.0, step=2e-3)
        back = transport.geodesic(
            conn, forward.end_point, -forward.end_vector, 1.0, step=2e-3
        )
        assert np.max(np.abs(back.end_point - np.array([1.0, -1.0]))) < 1e-6

    def test_domain_exit_flagged(self, catalogue):
        # driving mu towards min(eps) leaves the numeric field's chart
        trace = transport.geodesic(
            geometry.connection_field(catalogue["gce"]), [1.0, 0.5], [0.0, 2.0], 1.0
        )
        assert "domain_exit" in trace.flags
        assert len(trace.points) < 1001

    def test_a_stage_outside_the_box_is_a_domain_exit_for_the_oracle_field(self):
        # the fibre field refused such a stage through the chart check; the
        # oracle field was evaluated there, and math.sin(inf) in the sphere's
        # connection ended the run in a ValueError
        field = geometry.connection_field(models.build("vmf-sphere"), source="oracle")
        seen = []

        def recorded(coords):
            seen.append(in_open_box(coords, field.domain))
            return field.evaluate(coords)

        conn = dataclasses.replace(field, evaluate=recorded)
        with np.errstate(**RAISE_FP_ERRORS):
            trace = transport.geodesic(conn, [1.2, 0.5], [1e160, 1e160], 1.0)
        assert trace.flags == ("domain_exit",)
        assert trace.points.tolist() == [[1.2, 0.5]]
        assert seen == [True]

    @pytest.mark.parametrize("strided", [True, False], ids=["strided", "contiguous"])
    def test_the_acceleration_sums_as_the_float_loop_does(self, strided):
        # reference: -omega^k_ij v^i v^j summed in Python floats over (i, j) in
        # row-major order; the fibre solve returns omega as a strided view
        # (a slice of its solution matrix), which einsum sums in another order;
        # the speed makes a last-bit change in the acceleration reach the state
        base = 0.2 * np.random.default_rng(3).normal(size=(2, 3, 2))
        base[1, 0, :] = [0.0, -0.0]

        def omega(coords):
            scaled = base * math.cos(coords[0])
            return scaled[:, :2, :] if strided else np.ascontiguousarray(scaled[:, :2, :])

        def reference_rhs(_, state):
            vel = state[2:].tolist()
            rows = np.ascontiguousarray(omega(state[:2])).reshape(2, 4).tolist()
            pairs = [(a, b) for a in vel for b in vel]
            acc = [-sum([w * a * b for w, (a, b) in zip(row, pairs)]) for row in rows]
            return np.array(vel + acc)

        field = geometry.ConnectionField(omega, "test", ((-math.inf, math.inf),) * 2, Tolerances())
        trace = transport.geodesic(field, [0.1, 0.2], [1.0, -1.2], 1.0, step=0.1)
        state, states = np.array([0.1, 0.2, 1.0, -1.2]), []
        for k in range(10):
            state = transport._rk4(state, reference_rhs, k * 0.1, 0.1)
            states.append(state)
        assert trace.flags == ()
        found = np.concatenate([trace.points, trace.vectors], axis=1)[1:]
        assert found.tobytes() == np.array(states).tobytes()

    def test_step_budget_raises_before_any_evaluation(self, catalogue):
        gce = catalogue["gce"]
        conn, calls = counting_oracle_field(gce)
        with pytest.raises(DomainError, match="budget"):
            transport.geodesic(conn, [1.0, -1.0], [1.0, 0.5], 1.0, step=1e-9)
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
                transport.geodesic(conn, start, velocity, 1.0)
            assert "\n" not in str(excinfo.value)
        assert not in_open_box(np.array([1.0, -1.0, 7.0]), conn.domain)


def counted_field(field):
    """A copy of ``field`` that records each evaluation in the returned list."""
    calls = []

    def counted(coords):
        calls.append(1)
        return field.evaluate(coords)

    return dataclasses.replace(field, evaluate=counted), calls


def counting_oracle_field(model):
    """The model's oracle connection field, recording each evaluation."""
    return counted_field(geometry.connection_field(model, source="oracle"))


class TestParallelTransport:
    def test_one_way_point_raises_before_any_evaluation(self, catalogue):
        conn, calls = counting_oracle_field(catalogue["gce"])
        with pytest.raises(DomainError, match="at least two way points"):
            transport.parallel_transport(conn, [np.array([1.0, 0.0])], [1.0, 0.0])
        assert calls == []

    def test_waypoint_outside_domain_raises_before_any_evaluation(self, catalogue):
        # beta = -0.5 is outside the field domain beta > 0; the straight
        # path used to run until a step crossed the bound
        gce = catalogue["gce"]
        conn, calls = counting_oracle_field(gce)
        with pytest.raises(DomainError, match="way point"):
            transport.parallel_transport(
                conn, [np.array([1.0, 0.0]), np.array([-0.5, 0.0])], [1.0, 0.0]
            )
        assert calls == []

    def test_wrong_length_vector_raises_before_any_evaluation(self, catalogue):
        # a 3-vector on a 2-d path used to end in a numpy broadcast ValueError
        gce = catalogue["gce"]
        conn, calls = counting_oracle_field(gce)
        with pytest.raises(DomainError, match="3 components, the path 2") as excinfo:
            transport.parallel_transport(
                conn, [np.array([1.0, 0.0]), np.array([1.5, 0.0])], [1.0, 0.0, 0.0]
            )
        assert "\n" not in str(excinfo.value) and calls == []

    def test_zero_length_path_is_one_sample(self, catalogue):
        model = catalogue["gaussian-kl"]
        conn, calls = counting_oracle_field(model)
        a = np.array([0.3, 1.2])
        trace = transport.parallel_transport(conn, [a, a], [0.7, -0.2])
        assert len(trace.times) == 1 and calls == []
        assert trace.end_point.tolist() == [0.3, 1.2]
        assert trace.end_vector.tolist() == [0.7, -0.2]

    def test_zero_connection_keeps_vector(self, catalogue):
        trace = transport.parallel_transport(
            geometry.connection_field(catalogue["regression-dlambda"]),
            [np.array([0.0, 0.0]), np.array([1.5, -2.0])],
            [0.7, 0.3],
        )
        assert trace.end_vector == pytest.approx([0.7, 0.3], abs=1e-12)

    def test_gce_closed_form(self, catalogue):
        # v^mu(t) = (mu0 - mu(t)) / beta(t) * v^beta with mu0 set by the seed
        gce = catalogue["gce"]
        oracle_field = geometry.connection_field(gce, source="oracle")
        trace = transport.parallel_transport(
            oracle_field, [np.array([1.0, 0.0]), np.array([2.0, 1.0])], [1.0, 0.0]
        )
        assert trace.end_vector == pytest.approx([1.0, -0.5], abs=1e-5)
        closed = gce.oracle.covariant_field([1.0, 0.0], [1.0, 0.0], [2.0, 1.0])
        assert trace.end_vector == pytest.approx(closed, abs=1e-5)

    def test_sphere_latitude_holonomy(self):
        sphere = models.build("vmf-sphere", kappa=1.0)
        latitude = math.pi / 3
        loop = [np.array([latitude, phi]) for phi in np.linspace(0.0, 2.0 * math.pi, 9)]
        trace = transport.parallel_transport(geometry.connection_field(sphere), loop, [1.0, 0.0])
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
            geometry.connection_field(gce), [1.0, 0.0], [1.0, 0.0], grid
        )
        for point, vector in zip(trace.points, trace.vectors):
            expected = gce.oracle.covariant_field([1.0, 0.0], [1.0, 0.0], point)
            assert vector == pytest.approx(expected, abs=1e-4)

    def test_zero_connection_constant_field(self, catalogue):
        grid = [np.array([a, b]) for a in (-1.0, 1.0) for b in (-1.0, 1.0)]
        trace = transport.covariant_constant_field(
            geometry.connection_field(catalogue["regression-dlambda"]),
            [0.0, 0.0],
            [0.4, -0.9],
            grid,
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
            geometry.connection_field(model), theta0, seed, grid
        )
        for point, vector in zip(trace.points, trace.vectors):
            jac = numdiff.fd_jacobian(model.oracle.affine_map, point)
            assert jac @ vector == pytest.approx([1.0, 0.0], abs=1e-3)

    def test_sphere_field_fails_flat(self):
        # path dependence is a residual that fails its check, not an error
        sphere = models.build("vmf-sphere", kappa=1.0)
        grid = [np.array([1.0, 0.5]), np.array([1.5, 1.0])]
        trace = transport.covariant_constant_field(
            geometry.connection_field(sphere), [math.pi / 3, 0.0], [1.0, 0.0], grid
        )
        assert not passes(trace.path_residual, Tolerances().flat)

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
            tol=Tolerances(),
        )
        grid = [np.array([1.0, 0.5, 0.4]), np.array([1.5, 1.0, -0.3])]
        trace = transport.covariant_constant_field(
            conn, [math.pi / 3, 0.0, 0.0], [1.0, 0.0, 0.0], grid
        )
        assert not passes(trace.path_residual, Tolerances().flat)

    def test_a_nan_path_gap_fails(self):
        # max(0.0, nan) is 0.0: a field of NaNs used to pass the two-path check
        conn = geometry.ConnectionField(
            evaluate=lambda coords: np.full((2, 2, 2), np.nan),
            provenance="nan",
            domain=((-math.inf, math.inf), (-math.inf, math.inf)),
            tol=Tolerances(),
        )
        trace = transport.covariant_constant_field(conn, [0.0, 0.0], [1.0, 0.0], [[1.0, 1.0]])
        assert math.isnan(trace.path_residual)
        assert not passes(trace.path_residual, Tolerances().flat)

    def test_empty_grid_raises(self, catalogue):
        # an empty grid used to end in numpy's zero-size array ValueError
        model = catalogue["gce"]
        conn, calls = counting_oracle_field(model)
        with pytest.raises(DomainError, match="grid point"):
            transport.covariant_constant_field(conn, [1.0, -1.0], [1.0, 0.0], [])
        assert calls == []

    def test_a_grid_point_near_the_base_is_transported(self, catalogue):
        # a grid point np.allclose to the base used to be taken for the base,
        # and its field vector was the seed (1, 0) untransported
        conn = geometry.connection_field(catalogue["gce"])
        base = np.array([1.0, -1.0])
        near = base * (1.0 + 5e-6)
        field = transport.covariant_constant_field(conn, base, [1.0, 0.0], [near])
        path = transport.parallel_transport(conn, [base, near], [1.0, 0.0])
        assert field.vectors[0].tolist() == path.end_vector.tolist()
        assert field.vectors[0][1] == pytest.approx(5.0e-6, rel=1e-4)

    def test_detour_skips_zero_length_segments(self, catalogue):
        # the target moves both coordinates, so the detour is two segments:
        # the straight path and each detour segment sample 9 Lobatto nodes,
        # then the 8 new ones of the 17-node level, whose end state agrees
        # (a zero-length corner would cost another 17)
        model = catalogue["gaussian-kl"]
        conn, calls = counting_oracle_field(model)
        trace = transport.covariant_constant_field(
            conn, [0.0, 1.0], [1.0, 0.0], [np.array([0.5, 1.5])]
        )
        assert len(calls) == 3 * (9 + 8)
        assert trace.path_residual < 1e-12

    def test_detour_to_a_one_coordinate_stop_leaves_the_straight_path(self, catalogue):
        # the target shares mu with the base: changing one coordinate at a
        # time is the straight path, whose gap is 0 on any connection, so the
        # detour steps along mu by the offset first and goes around a square
        model = catalogue["gaussian-kl"]
        conn = geometry.connection_field(model, source="oracle")
        mus = []

        def recorded(coords):
            mus.append(coords[0])
            return conn.evaluate(coords)

        trace = transport.covariant_constant_field(
            dataclasses.replace(conn, evaluate=recorded), [0.0, 1.0], [1.0, 0.0], [[0.0, 1.5]]
        )
        assert max(mus) == pytest.approx(0.5) and min(mus) == 0.0
        assert trace.path_residual < 1e-12
        corners = transport._l_path(np.array([0.0, 1.0]), np.array([0.0, 1.5]), conn.domain)
        assert [corner.tolist() for corner in corners] == [
            [0.0, 1.0], [0.5, 1.0], [0.5, 1.5], [0.0, 1.5]
        ]


def _fibre(model):
    return geometry.connection_field(model)


# vmf-cylinder from (0, 1): the second target has kappa < 0, outside the chart
_CYLINDER = ([0.0, 1.0], [[0.4, 1.5], [0.4, -1.0]])

# each malformed input: the model, the call on its counted copy, and what
# the call did before the one input check of core.require_point and
# core.require_tangent
MALFORMED = {
    # a numpy ValueError (inhomogeneous shape)
    "unequal-way-points": ("gce", lambda m: transport.parallel_transport(
        _fibre(m), [[1.0, -1.0], [1.5, -1.0, 0.0]], [1.0, 0.0])),
    # a numpy broadcast ValueError
    "field-base-length": ("gce", lambda m: transport.covariant_constant_field(
        _fibre(m), [1.0, -1.0, 0.0], [1.0, 0.0], [[1.5, -1.0]])),
    # 3-vectors on a 2-d chart
    "field-seed-length": ("gce", lambda m: transport.covariant_constant_field(
        _fibre(m), [1.0, -1.0], [1.0, 0.0, 0.0], [[1.0, -1.0]])),
    # a domain_exit after 0 steps
    "geodesic-nan-velocity": ("gce", lambda m: transport.geodesic(
        _fibre(m), [1.0, -1.0], [math.nan, 0.5], 1.0)),
    # a NaN end vector
    "transport-nan-vector": ("gce", lambda m: transport.parallel_transport(
        _fibre(m), [[1.0, -1.0], [1.5, -1.0]], [math.nan, 0.0])),
    # refused after the first target was solved: 561 gradient and Hessian calls
    "affine-last-target": ("vmf-cylinder", lambda m: structure.affine_coordinates(
        m, *_CYLINDER)),
    "massieu-last-target": ("vmf-cylinder", lambda m: structure.massieu(m, *_CYLINDER)),
    # refused after the first grid point was transported
    "field-last-grid-point": ("gce", lambda m: transport.covariant_constant_field(
        _fibre(m), [1.0, -1.0], [1.0, 0.0], [[1.5, -1.0], [-0.5, -1.0]])),
    # a numpy ValueError (inhomogeneous shape)
    "geodesic-ragged-start": ("gce", lambda m: transport.geodesic(
        _fibre(m), [1.0, [2.0, 3.0]], [1.0, 0.5], 1.0)),
    # a numpy ValueError (could not convert string to float)
    "metric-string-point": ("gce", lambda m: geometry.metric_at(m, "ab")),
    # a TypeError from float()
    "classify-dict-point": ("gce", lambda m: structure.classify(m, [{"beta": 1.0}])),
    # refused after the first grid point was classified: 159 gradient and Hessian calls
    "classify-out-of-chart-last-point": ("gce", lambda m: structure.classify(
        m, [[1.0, 0.5], [-5.0, 0.5]])),
    # "outside chart domain" after the first grid point was classified
    "classify-point-length": ("gce", lambda m: structure.classify(
        m, [[1.0, 0.5], [1.0, 0.5, 0.0]])),
    # a NaN default step, refused as not positive with a NumericalFailure
    "geodesic-nan-t-end": ("gce", lambda m: transport.geodesic(
        _fibre(m), [1.0, -1.0], [1.0, 0.5], math.nan)),
    # one RK4 step over the whole span, four field evaluations and no flag
    "geodesic-inf-step": ("gce", lambda m: transport.geodesic(
        _fibre(m), [1.0, -1.0], [1.0, 0.5], 1.0, step=math.inf)),
    # point lists outside the budget of 1 to core.MAX_POINTS ran to the end:
    # a zero-length path to a copy of the start makes no model call
    "affine-over-budget-targets": ("vmf-cylinder", lambda m: structure.affine_coordinates(
        m, [0.0, 1.0], [[0.0, 1.0]] * 2501)),
    "massieu-no-target": ("vmf-cylinder", lambda m: structure.massieu(m, [0.0, 1.0], [])),
    "field-over-budget-grid": ("gce", lambda m: transport.covariant_constant_field(
        _fibre(m), [1.0, -1.0], [1.0, 0.0], [[1.0, -1.0]] * 2501)),
    "transport-over-budget-way-points": ("gce", lambda m: transport.parallel_transport(
        _fibre(m), [[1.0, -1.0]] * 2501, [1.0, 0.0])),
    # arguments of the wrong kind ended in a Python TypeError: a number is not
    # iterable, and abs() or math.isfinite() of a string or None
    "classify-number-grid": ("gce", lambda m: structure.classify(m, 5)),
    "transport-number-way-points": ("gce", lambda m: transport.parallel_transport(
        _fibre(m), 7, [1.0, 0.0])),
    "field-number-grid": ("gce", lambda m: transport.covariant_constant_field(
        _fibre(m), [1.0, -1.0], [1.0, 0.0], 3)),
    "affine-number-targets": ("gce", lambda m: structure.affine_coordinates(
        m, [1.0, -1.0], 2.0)),
    "geodesic-string-t-end": ("gce", lambda m: transport.geodesic(
        _fibre(m), [1.0, -1.0], [1.0, 0.0], "a")),
    "geodesic-none-t-end": ("gce", lambda m: transport.geodesic(
        _fibre(m), [1.0, -1.0], [1.0, 0.0], None)),
    "geodesic-string-step": ("gce", lambda m: transport.geodesic(
        _fibre(m), [1.0, -1.0], [1.0, 0.0], 1.0, step="x")),
    # an int beyond the float range: "int too large to convert to float"
    "geodesic-huge-int-t-end": ("gce", lambda m: transport.geodesic(
        _fibre(m), [1, -1], [1, 0], 10**400)),
    "geodesic-huge-int-step": ("gce", lambda m: transport.geodesic(
        _fibre(m), [1, -1], [1, 0], 1.0, step=10**400)),
    "geodesic-huge-int-start": ("gce", lambda m: transport.geodesic(
        _fibre(m), [10**400, -1], [1, 0], 1.0)),
    # a bool is an int to Python: it ran a geodesic of length 1
    "geodesic-bool-t-end": ("gce", lambda m: transport.geodesic(
        _fibre(m), [1.0, -1.0], [1.0, 0.5], True, step=0.5)),
}


@pytest.mark.parametrize("name, call", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_input_is_refused_before_any_model_call(name, call):
    model, calls = counted_model(models.build(name))
    with pytest.raises(DomainError) as excinfo:
        call(model)
    assert "\n" not in str(excinfo.value)
    assert calls == {}


class TestFieldTolerance:
    # regression-ls fails condition 4 by 0.1875 at (0.5, -0.25): a path gates
    # through the tolerance its field was built with, and no other
    PATHS = {
        "geodesic": lambda conn: transport.geodesic(
            conn, [0.5, -0.25], [1.0, 0.5], 0.1, step=0.01
        ),
        "transport": lambda conn: transport.parallel_transport(
            conn, [[0.5, -0.25], [0.6, -0.2]], [1.0, 0.0]
        ),
        "field": lambda conn: transport.covariant_constant_field(
            conn, [0.5, -0.25], [1.0, 0.0], [[0.6, -0.2]]
        ),
    }

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_the_fields_condition4_tolerance_is_the_gate(self, catalogue, path):
        model = catalogue["regression-ls"]
        loose = geometry.connection_field(model, tol=Tolerances(cond4=10))
        assert self.PATHS[path](loose).end_point == pytest.approx([0.6, -0.2], abs=1e-12)
        with pytest.raises(Condition4Violated) as excinfo:
            self.PATHS[path](geometry.connection_field(model))
        assert excinfo.value.deviation == pytest.approx(0.1875)

    @pytest.mark.parametrize("source", ["fibre", "oracle"])
    def test_a_field_keeps_the_tolerances_it_was_built_with(self, catalogue, source):
        tol = Tolerances(flat=1e-6)
        assert geometry.connection_field(catalogue["gce"], source, tol).tol is tol

    @pytest.mark.parametrize("flat, straight, field", [(1e-3, 33, 67), (1e-6, 65, 115)])
    def test_paths_solve_to_the_fields_flat_tolerance(self, catalogue, flat, straight, field):
        # a path took its own tol argument, Tolerances() by default, so a field
        # built with flat=1e-6 was solved to the 1e-3 level limit: 33 and 67
        sphere = catalogue["vmf-sphere"]
        conn, calls = counted_field(geometry.connection_field(sphere, tol=Tolerances(flat=flat)))
        transport.parallel_transport(conn, [[0.3, -2.0], [2.8, 2.5]], [1.0, 0.0])
        assert len(calls) == straight
        calls.clear()
        transport.covariant_constant_field(conn, [0.3, -2.0], [1.0, 0.0], [(2.8, 2.5)])
        assert len(calls) == field


class TestSegmentSampling:
    def test_smooth_segment_costs_two_nested_levels(self, catalogue):
        # 9 Lobatto nodes, then only the 8 new nodes of the 17-node level
        # (the 9 are among its nodes), whose end state agrees with the first
        model = catalogue["gaussian-kl"]
        conn, calls = counting_oracle_field(model)
        transport.parallel_transport(
            conn, [np.array([0.0, 1.0]), np.array([0.5, 1.4])], [1.0, 0.0]
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

        conn = dataclasses.replace(oracle, evaluate=jumping)
        with pytest.raises(NumericalFailure, match="65 Chebyshev nodes") as excinfo:
            transport.parallel_transport(
                conn, [np.array([0.0, 1.0]), np.array([1.0, 1.0])], [1.0, 0.0]
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
            geometry.connection_field(catalogue["gaussian-kl"]),
            [np.array([0.0, 1.0]), np.array([3.0, 0.05])],
            [1.0, 0.0],
        )
        assert np.max(np.abs(trace.end_vector - [0.0025, 0.0])) <= 1e-12
        assert len(trace.times) == 17


class TestTraceFormat:
    def test_times_increase_and_points_in_chart(self, catalogue):
        trace = transport.geodesic(
            geometry.connection_field(catalogue["gce"]), [1.0, -1.0], [1.0, 0.5], 1.0, step=0.01
        )
        assert np.all(np.diff(trace.times) > 0)
        for point in trace.points:
            assert catalogue["gce"].chart.contains(point)
