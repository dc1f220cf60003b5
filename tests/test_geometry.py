import dataclasses
import math

import numpy as np
import pytest

from dsm_geom import geometry, models, numdiff, structure
from dsm_geom.core import ChartSpec, GaussianData, ModelDefinition, Tolerances
from dsm_geom.errors import (
    Condition4Violated,
    DomainError,
    MetricNotPD,
    Unsupported,
)

from conftest import (
    HESSIAN_STRUCTURED,
    METRIC_BEARING,
    counted_model,
    counting,
    levi_civita_from_metric,
    nan_gradient_probe_model,
    random_chart_point,
    sphere_connection_reference,
    wrong_fibre_model,
)


class TestMetricAt:
    def test_gaussian_kl_reference_point(self, catalogue):
        evaluation = geometry.metric_at(catalogue["gaussian-kl"], [0.0, 1.0])
        assert evaluation.matrix == pytest.approx(np.diag([1.0, 2.0]), abs=1e-10)
        assert evaluation.fibre_deviation < 1e-6
        assert len(evaluation.member_labels) == 3

    def test_fd_source(self, catalogue):
        model = dataclasses.replace(catalogue["gaussian-kl"], gradient_fn=None, hessian_fn=None)
        evaluation = geometry.metric_at(model, [0.0, 1.0])
        assert evaluation.matrix == pytest.approx(np.diag([1.0, 2.0]), abs=1e-4)

    def test_sphere_metric(self):
        sphere = models.build("vmf-sphere", kappa=4.0)
        evaluation = geometry.metric_at(sphere, [math.pi / 3, 0.2])
        assert evaluation.matrix == pytest.approx(np.diag([4.0, 3.0]), abs=1e-5)

    def test_gumbel_condition4_evidence(self, catalogue):
        from dsm_geom.models.gumbel import compatible_point

        point = compatible_point(1.0)
        with pytest.raises(Condition4Violated) as excinfo:
            geometry.metric_at(catalogue["gumbel"], point)
        alpha2 = point[0] ** 2
        varying = sorted(
            (h[0, 0] - 1.0 / alpha2) * alpha2 for h in excinfo.value.member_hessians
        )
        assert varying[0] == pytest.approx(0.5, rel=0.02)
        assert varying[1] == pytest.approx(0.82, rel=0.02)

    def test_symmetric_positive_definite_everywhere(self, catalogue, rng):
        for name in METRIC_BEARING:
            model = catalogue[name]
            for _ in range(25):
                point = random_chart_point(model, rng)
                g = geometry.metric_at(model, point).matrix
                assert np.array_equal(g, g.T), name
                assert np.all(np.linalg.eigvalsh(g) > 0), name

    def test_documented_failures_raise(self, catalogue, rng):
        with pytest.raises(Condition4Violated):
            geometry.metric_at(catalogue["regression-ls"], [1.0, -0.5])
        from dsm_geom.models.gumbel import compatible_point

        with pytest.raises(Condition4Violated):
            geometry.metric_at(catalogue["gumbel"], compatible_point(1.3))

    def test_empty_fibre_sample_raises(self, catalogue):
        # no member ended in numpy's "axes don't match array" here, and one
        # member passed condition 4 and the Pythagorean check vacuously
        kl = catalogue["gaussian-kl"]
        for sample in ([], [GaussianData(0.0, 1.0)]):
            model = dataclasses.replace(kl, fibre_sampler_fn=lambda coords: sample)
            with pytest.raises(Unsupported, match=f"gave {len(sample)} members"):
                geometry.metric_at(model, [0.0, 1.0])
            with pytest.raises(Unsupported, match=f"gave {len(sample)} members"):
                structure.pythagorean_check(model, [0.0, 1.0], [1.0, 1.0])
        # two members are enough: gumbel's fibre pair
        from dsm_geom.models.gumbel import compatible_point

        assert len(catalogue["gumbel"].fibre_sampler(compatible_point(1.3))) == 2


class TestConnectionAt:
    def test_gaussian_kl_coefficients(self, catalogue):
        evaluation = geometry.connection_at(catalogue["gaussian-kl"], [0.0, 2.0])
        omega = evaluation.omega
        assert omega[0, 0, 1] == pytest.approx(-1.0, abs=1e-4)
        assert omega[0, 1, 0] == pytest.approx(-1.0, abs=1e-4)
        assert omega[1, 1, 1] == pytest.approx(-1.5, abs=1e-4)
        zero_mask = np.ones((2, 2, 2), dtype=bool)
        zero_mask[0, 0, 1] = zero_mask[0, 1, 0] = zero_mask[1, 1, 1] = False
        assert np.max(np.abs(omega[zero_mask])) < 1e-4

    def test_dlambda_connection_vanishes(self, catalogue, rng):
        evaluation = geometry.connection_at(
            catalogue["regression-dlambda"], random_chart_point(catalogue["regression-dlambda"], rng)
        )
        assert np.max(np.abs(evaluation.omega)) < 1e-8

    def test_sumsq_dual_style_coefficients(self, catalogue):
        evaluation = geometry.connection_at(catalogue["gaussian-sumsq"], [1.0, 2.0])
        omega = evaluation.omega
        assert omega[1, 0, 0] == pytest.approx(0.5, abs=1e-4)
        assert omega[1, 1, 1] == pytest.approx(0.5, abs=1e-4)
        zero_mask = np.ones((2, 2, 2), dtype=bool)
        zero_mask[1, 0, 0] = zero_mask[1, 1, 1] = False
        assert np.max(np.abs(omega[zero_mask])) < 1e-4

    def test_probe_family_independence(self, catalogue, rng):
        for name in METRIC_BEARING:
            model = catalogue[name]
            for _ in range(5):
                point = random_chart_point(model, rng)
                evaluation = geometry.connection_at(model, point)
                assert evaluation.probe_consistency <= 1e-3, name

    def test_lower_index_symmetry(self, catalogue, rng):
        for name in HESSIAN_STRUCTURED:
            model = catalogue[name]
            for _ in range(25):
                omega = geometry.connection_at(
                    model, random_chart_point(model, rng)
                ).omega
                assert geometry.torsion_residual(omega) < 1e-10, name

    def test_probe_connections_are_exactly_symmetric(self, catalogue):
        # each probe Hessian is symmetric, so the (i, j) and (j, i) columns
        # of a family's solve are the same right-hand side: the connection is
        # torsion-free by construction, so classify has no torsion check
        arrays = []
        for model in catalogue.values():
            for point in structure.default_grid(model, 7):
                try:
                    evaluation = geometry.connection_at(model, point)
                except Condition4Violated:  # regression-ls and gumbel, at every point
                    continue
                arrays += [*evaluation.families, evaluation.omega]
        assert len(arrays) == 6 * 7 * 7 * 3
        for omega in arrays:
            assert np.array_equal(omega, omega.transpose(0, 2, 1))

    @pytest.mark.parametrize("name, point", [("gce", [1.0, -1.0]), ("vmf-sphere", [1.0, 0.3])])
    def test_fibre_evaluation_makes_only_its_model_calls(
        self, catalogue, monkeypatch, name, point
    ):
        # one geodesic field evaluation: the condition-4 gate samples 3
        # fibre members (1 sampler call, 3 Hessians), one probe family of 2
        # antithetic pairs costs 4 gradients and 4 Hessians, and the chart
        # is checked once, by the gate
        model, calls = counted_model(catalogue[name])
        for method in ("require", "contains"):
            counted = counting(calls, "chart", getattr(ChartSpec, method))
            monkeypatch.setattr(ChartSpec, method, counted)
        geometry.connection_at(model, point, check_consistency=False)
        assert calls.pop("chart") == 1
        assert calls == {
            "fibre_sampler_fn": 1, "probe_pairs_fn": 1, "gradient_fn": 4, "hessian_fn": 7
        }

    def test_oracle_match(self, catalogue, rng):
        for name in METRIC_BEARING:
            model = catalogue[name]
            for _ in range(10):
                point = random_chart_point(model, rng)
                g = geometry.metric_at(model, point).matrix
                g_ref = model.oracle.metric(point)
                scale = max(np.max(np.abs(g_ref)), 1e-12)
                assert np.max(np.abs(g - g_ref)) / scale < 1e-4, name
                omega = geometry.connection_at(model, point).omega
                omega_ref = model.oracle.connection(point)
                cscale = max(np.max(np.abs(omega_ref)), 1.0)
                assert np.max(np.abs(omega - omega_ref)) / cscale < 1e-4, name


class TestDualConnection:
    def test_dlambda_self_dual_flat(self, catalogue):
        model = catalogue["regression-dlambda"]
        dual = geometry.dual_connection_at(
            geometry.metric_field(model), geometry.connection_field(model), [0.5, -1.0]
        )
        assert np.max(np.abs(dual)) < 1e-6

    def test_gaussian_dual_torsionless(self, catalogue):
        model = catalogue["gaussian-kl"]
        dual = geometry.dual_connection_at(
            geometry.metric_field(model), geometry.connection_field(model), [0.0, 1.0]
        )
        assert geometry.torsion_residual(dual) < 1e-4

    def test_cylinder_dual_from_duality_formula(self):
        # independent oracle: w*^e_ac = g^{eb} (d_a g_bc - g_dc w^d_ab)
        # with g = diag(kappa, 1/lambda^2) and w = 0 gives -2/lambda
        cylinder = models.build("vmf-cylinder", kappa=1.0)
        metric, conn = geometry.metric_field(cylinder), geometry.connection_field(cylinder)
        dual = geometry.dual_connection_at(metric, conn, [0.3, 2.0])
        assert dual[1, 1, 1] == pytest.approx(-2.0 / 2.0, abs=1e-4)
        mask = np.ones((2, 2, 2), dtype=bool)
        mask[1, 1, 1] = False
        assert np.max(np.abs(dual[mask])) < 1e-4


class TestCurvature:
    def test_gce_flat(self, catalogue):
        gce = catalogue["gce"]
        tensor = geometry.curvature_at(geometry.connection_field(gce), [1.0, 0.2])
        assert tensor.max_abs < 1e-4

    def test_sphere_component_against_brute_force(self):
        sphere = models.build("vmf-sphere", kappa=1.0)
        point = np.array([math.pi / 3, 0.0])
        tensor = geometry.curvature_at(geometry.connection_field(sphere), point)
        assert tensor.components[0, 1, 0, 1] == pytest.approx(
            math.sin(math.pi / 3) ** 2, abs=1e-3
        )
        # brute-force expansion from the textbook sphere connection
        h = 1e-6
        def omega_ref(t):
            return sphere_connection_reference(t)
        domega = [
            (omega_ref(point + h * e) - omega_ref(point - h * e)) / (2 * h)
            for e in np.eye(2)
        ]
        omega = omega_ref(point)
        brute = np.empty((2, 2, 2, 2))
        for l in range(2):
            for k in range(2):
                for i in range(2):
                    for j in range(2):
                        brute[l, k, i, j] = (
                            domega[i][l, j, k]
                            - domega[j][l, i, k]
                            + omega[l, i, :] @ omega[:, j, k]
                            - omega[l, j, :] @ omega[:, i, k]
                        )
        assert tensor.components == pytest.approx(brute, abs=1e-3)

    def test_gce_oracle_is_flat_across_its_own_domain(self, catalogue):
        # mu = 1.5 is past min(levels) = 1: outside the chart, inside the oracle
        # connection's domain, which the model's chart used to stand in for
        gce = catalogue["gce"]
        oracle = geometry.connection_field(gce, source="oracle")
        assert not gce.chart.contains([1.0, 1.5])
        assert geometry.curvature_at(oracle, [1.0, 1.5]).max_abs <= 1e-10
        with pytest.raises(DomainError, match="outside field domain"):
            geometry.curvature_at(oracle, [-1.0, 1.5])

    def test_zero_connection_model_exact(self, catalogue):
        model = catalogue["regression-dlambda"]
        tensor = geometry.curvature_at(geometry.connection_field(model), [0.0, 0.0])
        assert tensor.max_abs < 1e-10

    def test_antisymmetric_in_last_pair(self, catalogue):
        model = catalogue["gaussian-kl"]
        tensor = geometry.curvature_at(geometry.connection_field(model), [0.3, 1.5])
        swapped = np.transpose(tensor.components, (0, 1, 3, 2))
        assert np.max(np.abs(tensor.components + swapped)) < 1e-12

    def test_sphere_times_line_in_three_dimensions(self):
        # S^2 x R with metric diag(1, sin^2 theta, 1) and its Levi-Civita connection
        domain = ((0.0, math.pi), (-math.inf, math.inf), (-math.inf, math.inf))
        chart = ChartSpec(
            domain=domain, names=("theta", "phi", "z"),
            sample_box=((0.5, 2.5), (-1.0, 1.0), (-1.0, 1.0)),
        )
        model = ModelDefinition(name="s2xr", chart=chart, divergence_fn=None)

        def omega(coords):
            out = np.zeros((3, 3, 3))
            out[:2, :2, :2] = sphere_connection_reference(coords[:2])
            return out

        metric = geometry.MetricField(
            lambda coords: np.diag([1.0, math.sin(coords[0]) ** 2, 1.0]), "analytic", domain
        )
        conn = geometry.ConnectionField(omega, "analytic", domain, Tolerances())
        point = np.array([1.1, 0.4, -0.3])
        components = geometry.curvature_at(conn, point).components
        assert components[0, 1, 0, 1] == pytest.approx(math.sin(1.1) ** 2, abs=1e-8)
        for axis in range(4):
            assert not np.any(np.take(components, 2, axis=axis))
        residual, worst = geometry.codazzi_residual(metric, conn, point)
        assert worst < 1e-8
        # a Levi-Civita connection is its own dual
        dual = geometry.dual_connection_at(metric, conn, point)
        assert np.max(np.abs(dual - omega(point))) < 1e-8
        # the contractions sum as the index loops they replace, bit for bit
        w = omega(point)
        domega = numdiff.fd_jacobian(conn, point, domain)
        dg = numdiff.fd_jacobian(metric, point, domain)
        g = metric(point)
        for l, k, i, j in np.ndindex(3, 3, 3, 3):
            value = domega[l, j, k, i] - domega[l, i, k, j]
            value += float(w[l, i, :] @ w[:, j, k])
            value -= float(w[l, j, :] @ w[:, i, k])
            assert components[l, k, i, j] == value
        for a, b, c in np.ndindex(3, 3, 3):
            value = dg[b, c, a] - dg[a, c, b]
            value += float(g[a, :] @ w[:, b, c]) - float(g[b, :] @ w[:, a, c])
            assert residual[a, b, c] == value
        ginv = np.linalg.inv(g)
        for a in range(3):
            rhs = dg[:, :, a] - np.einsum("db,dc->bc", w[:, a, :], g)
            assert np.array_equal(dual[:, a, :], ginv @ rhs)


class TestCodazzi:
    def test_cylinder(self, catalogue):
        model = catalogue["vmf-cylinder"]
        _, residual = geometry.codazzi_residual(
            geometry.metric_field(model), geometry.connection_field(model), [0.3, 1.2]
        )
        assert residual < 1e-6

    def test_gaussian(self, catalogue):
        model = catalogue["gaussian-kl"]
        _, residual = geometry.codazzi_residual(
            geometry.metric_field(model), geometry.connection_field(model), [0.0, 1.0]
        )
        assert residual < 1e-4

    def test_constant_metric_zero_connection(self, catalogue):
        model = catalogue["regression-dlambda"]
        _, residual = geometry.codazzi_residual(
            geometry.metric_field(model), geometry.connection_field(model), [0.2, 0.4]
        )
        assert residual < 1e-12

    def test_hessian_structure_chain(self, catalogue, rng):
        # probe consistency implies flat + Codazzi for Hessian-structured models
        for name in HESSIAN_STRUCTURED:
            model = catalogue[name]
            metric, conn = geometry.metric_field(model), geometry.connection_field(model)
            for _ in range(3):
                point = random_chart_point(model, rng)
                assert geometry.connection_at(model, point).probe_consistency <= 1e-3
                assert geometry.curvature_at(conn, point).max_abs <= 1e-3, name
                assert geometry.codazzi_residual(metric, conn, point)[1] <= 1e-3, name


class TestMetricTransform:
    def test_gaussian_canonical(self, catalogue):
        residual = geometry.metric_transform_check(catalogue["gaussian-kl"], [0.0, 1.0])
        assert residual < 1e-4

    def test_gce_canonical(self, catalogue):
        residual = geometry.metric_transform_check(catalogue["gce"], [1.0, 0.5])
        assert residual < 1e-4

    @pytest.mark.parametrize("point", [(0.0, 1.0), (0.3, 1.2), (-0.5, 2.0)])
    def test_a_wrong_fibre_fails_where_the_right_one_passes(self, catalogue, point):
        # members of another model point agree with one another, so condition 4
        # holds, but D's gradient does not vanish at theta, and a Hessian moved
        # to the affine chart picks up gradient times the chart change's second
        # derivative: 0.0985, against 1e-8 to 9e-8 for gaussian-kl's own fibre
        assert geometry.metric_transform_check(wrong_fibre_model(), point) >= 0.05
        assert geometry.metric_transform_check(catalogue["gaussian-kl"], point) <= 1e-4


class TestCramerRao:
    def test_equality_case(self, catalogue):
        g = geometry.metric_at(catalogue["gaussian-kl"], [0.0, 1.0]).matrix
        v = np.array([0.3, -0.8])
        margin = (v @ g @ v) * (v @ g @ v) - (v @ g @ v) ** 2
        assert abs(margin) < 1e-12

    def test_gaussian_margins(self, catalogue):
        report = geometry.cramer_rao_check(catalogue["gaussian-kl"], [0.0, 1.0])
        assert report.worst_margin >= -1e-10
        assert report.worst_affine_margin >= -1e-10

    def test_gce_margins(self, catalogue):
        report = geometry.cramer_rao_check(catalogue["gce"], [1.0, 0.5])
        assert report.worst_margin >= -1e-10
        assert report.worst_affine_margin >= -1e-10

    def test_margin_is_the_smallest_metric_eigenvalue(self, catalogue):
        # the worst Cauchy-Schwarz margin over all vector pairs is >= 0
        # exactly when the smallest eigenvalue of g is
        model, point = catalogue["gce"], [1.0, 0.5]
        g = geometry.metric_at(model, point).matrix
        report = geometry.cramer_rao_check(model, point)
        assert report.worst_margin == np.linalg.eigvalsh(g)[0]


@pytest.mark.parametrize(
    "check",
    [
        geometry.cramer_rao_check,
        geometry.metric_transform_check,
        structure.induced_divergence_geometry_check,
    ],
)
def test_cross_checks_gate_with_the_callers_tolerances(catalogue, check):
    check(catalogue["gaussian-kl"], [0.0, 1.0])
    with pytest.raises(Condition4Violated):
        check(catalogue["gaussian-kl"], [0.0, 1.0], tol=Tolerances(cond4=1e-300))
    if check is not geometry.metric_transform_check:  # regression-ls has no affine map
        with pytest.raises(Condition4Violated):
            check(catalogue["regression-ls"], [0.5, -0.25])
        check(catalogue["regression-ls"], [0.5, -0.25], tol=Tolerances(cond4=1.0))


def _synthetic_model(hessian_matrix, degenerate_probes=False):
    """Minimal quadratic model for the error paths."""
    import math
    from dsm_geom.core import PROBE_DELTA, ChartSpec, DataSet, ModelDefinition

    chart = ChartSpec(
        domain=((-math.inf, math.inf), (-math.inf, math.inf)),
        names=("u", "v"),
        sample_box=((-1.0, 1.0), (-1.0, 1.0)),
    )
    hessian_matrix = np.asarray(hessian_matrix, dtype=float)

    def divergence(x, theta):
        center = np.array([x.statistic("c1"), x.statistic("c2")])
        delta = np.asarray(theta) - center
        return float(0.5 * delta @ hessian_matrix @ delta)

    def sampler(theta):
        return [
            DataSet({"c1": theta[0], "c2": theta[1], "entropy": 0.0})
            for _ in range(3)
        ]

    def probes(theta, family):
        delta = PROBE_DELTA
        if degenerate_probes:
            same = DataSet({"c1": theta[0], "c2": theta[1], "entropy": 0.0})
            return [same] * 4
        first = DataSet({"c1": theta[0] + delta, "c2": theta[1], "entropy": 0.0})
        first_m = DataSet({"c1": theta[0] - delta, "c2": theta[1], "entropy": 0.0})
        second = DataSet({"c1": theta[0], "c2": theta[1] + delta, "entropy": 0.0})
        second_m = DataSet({"c1": theta[0], "c2": theta[1] - delta, "entropy": 0.0})
        return [first, second, first_m, second_m]

    return ModelDefinition(
        name="synthetic",
        chart=chart,
        divergence_fn=divergence,
        fibre_sampler_fn=sampler,
        probe_pairs_fn=probes,
    )


class TestErrorPaths:
    def test_indefinite_metric_raises(self):
        model = _synthetic_model([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(MetricNotPD):
            geometry.metric_at(model, [0.0, 0.0])

    def test_non_finite_metric_raises_and_classify_records_it(self, catalogue):
        # a NaN entry passes the condition-4 spread check and cholesky alike
        kl = catalogue["gaussian-kl"]
        point = [0.0, 1e-308]
        with np.errstate(all="ignore"):
            with pytest.raises(MetricNotPD, match="not finite"):
                geometry.metric_at(kl, point)
            report = structure.classify(kl, [point])
        assert report.condition4["status"] == "fail"
        assert "not finite" in report.condition4["evidence"]["error"]

    def test_nan_probe_gradient_is_singular(self):
        # a NaN probe matrix used to end in the SVD's LinAlgError, which
        # classify does not record
        with pytest.raises(geometry.ProbeSingular, match="condition nan"):
            geometry.connection_at(nan_gradient_probe_model(), [0.3, 1.2])

    def test_degenerate_probes_raise(self):
        model = _synthetic_model(np.eye(2), degenerate_probes=True)
        with pytest.raises(geometry.ProbeSingular):
            geometry.connection_at(model, [0.0, 0.0])

    def test_extra_probe_pair_raises(self):
        # a family has one plus and one minus probe per fibre condition: a
        # third pair in 2-D is refused
        model = _synthetic_model(np.eye(2))
        probes = model.probe_pairs_fn

        def three_pairs(theta, family):
            data = probes(theta, family)
            return data[:2] + data[:1] + data[2:] + data[2:3]

        model = dataclasses.replace(model, probe_pairs_fn=three_pairs)
        with pytest.raises(
            geometry.ProbeSingular, match="6 probe data sets for dimension 2, not 4"
        ):
            geometry.connection_at(model, [0.0, 0.0])

    def test_unpaired_probe_raises(self):
        # an odd list cannot be split into plus and minus halves
        model = _synthetic_model(np.eye(2))
        probes = model.probe_pairs_fn
        model = dataclasses.replace(
            model, probe_pairs_fn=lambda theta, family: probes(theta, family)[:3]
        )
        with pytest.raises(
            geometry.ProbeSingular, match="3 probe data sets for dimension 2, not 4"
        ):
            geometry.connection_at(model, [0.0, 0.0])


def _probe_matrix_model(matrix):
    """A model whose probe matrix is ``matrix`` exactly: plus probe i's
    gradient is +row i and minus probe i's -row i.  Its metric is the identity
    and its probe Hessians are zero, so every connection it solves is 0."""
    from dsm_geom.core import ChartSpec, DataSet, ModelDefinition

    rows = np.asarray(matrix, dtype=float)

    def gradient(x, theta):
        return x.statistic("sign") * rows[int(x.statistic("row"))]

    def hessian(x, theta):
        return np.zeros((2, 2)) if x.label == "probe" else np.eye(2)

    def probes(theta, family):
        def probe(row, sign):
            return DataSet({"row": row, "sign": sign}, label="probe")

        return [probe(i, sign) for sign in (1.0, -1.0) for i in range(2)]

    return ModelDefinition(
        name="probe-matrix",
        chart=ChartSpec(
            domain=((-1.0, 1.0),) * 2, names=("u", "v"), sample_box=((-0.5, 0.5),) * 2
        ),
        divergence_fn=lambda x, theta: 0.0,
        gradient_fn=gradient,
        hessian_fn=hessian,
        fibre_sampler_fn=lambda theta: [DataSet({}, label="member") for _ in range(3)],
        probe_pairs_fn=probes,
    )


def _conditioned(condition):
    """A 2x2 matrix, neither diagonal nor singular, whose 2-norm condition is ``condition``."""
    turn = np.array([[0.8, -0.6], [0.6, 0.8]])
    return turn @ np.diag([1.0, 1.0 / condition]) @ turn.T


class TestProbeCondition:
    """The probe solve refuses a matrix whose Frobenius condition bound
    |P|_F |P^-1|_F exceeds PROBE_CONDITION_LIMIT (1e8)."""

    def test_ill_conditioned_probe_matrix_raises(self):
        matrix = _conditioned(1e9)
        assert np.linalg.cond(matrix) == pytest.approx(1e9, rel=1e-3)
        with pytest.raises(geometry.ProbeSingular, match="is singular"):
            geometry.connection_at(_probe_matrix_model(matrix), [0.0, 0.0])

    def test_well_conditioned_probe_matrix_solves(self):
        matrix = _conditioned(1e6)
        assert np.linalg.cond(matrix) == pytest.approx(1e6, rel=1e-6)
        evaluation = geometry.connection_at(_probe_matrix_model(matrix), [0.0, 0.0])
        assert np.array_equal(evaluation.omega, np.zeros((2, 2, 2)))

    def test_frobenius_bound_is_never_below_the_2_norm_condition(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        entries = st.floats(-1e3, 1e3, allow_nan=False).filter(lambda v: abs(v) > 1e-3)

        @hypothesis.settings(max_examples=150, deadline=None, database=None)
        @hypothesis.given(values=st.lists(entries, min_size=9, max_size=9), size=st.integers(2, 3))
        def check(values, size):
            matrix = np.array(values[: size * size]).reshape(size, size)
            singular = np.linalg.svd(matrix, compute_uv=False)
            hypothesis.assume(singular[-1] > 1e-6 * singular[0])
            inverse = np.linalg.solve(matrix, np.eye(size))
            bound = math.hypot(*matrix.ravel().tolist()) * math.hypot(*inverse.ravel().tolist())
            # the computed inverse is good to about cond * eps, far below 1e-6
            assert bound >= singular[0] / singular[-1] * (1.0 - 1e-6)

        check()


def _neighbour_probes(model):
    """``model`` without its own probes: each probe is a neighbouring fibre's member 0."""
    return dataclasses.replace(model, probe_pairs_fn=None)


class TestNeighbourFibreProbes:
    """A model that supplies no probes gets them from its fibre sampler."""

    def test_classify_gives_the_analytic_verdicts(self, catalogue):
        expected = {
            "gaussian-kl": ("pass", "pass", "yes"),
            "gaussian-sumsq": ("pass", "pass", "not-applicable"),
            "regression-ls": ("fail", "fail", "not-applicable"),
            "regression-dlambda": ("pass", "pass", "not-applicable"),
            "gce": ("pass", "pass", "yes"),
            "vmf-sphere": ("pass", "fail", "no"),
            "vmf-cylinder": ("pass", "pass", "yes"),
            "gumbel": ("fail", "fail", "no"),
        }
        assert sorted(expected) == sorted(catalogue)
        for name, model in catalogue.items():
            model = _neighbour_probes(model)
            report = structure.classify(model, structure.default_grid(model, 5))
            assert tuple(report.verdicts.values()) == expected[name], name

    @pytest.mark.parametrize("name", [*HESSIAN_STRUCTURED, "vmf-sphere"])
    def test_connection_matches_the_hand_probes(self, catalogue, name):
        # the two families agree only on a model with a Hessian structure, so
        # the sphere compares family 0 alone; measured gaps are at most 3.9e-12
        model = catalogue[name]
        both = name != "vmf-sphere"
        for point in structure.default_grid(model, 7):
            hand = geometry.connection_at(model, point, check_consistency=both)
            found = geometry.connection_at(_neighbour_probes(model), point, check_consistency=both)
            assert geometry._relative_gap(found.omega, hand.omega) <= 1e-10, point

    @pytest.mark.parametrize("mean", [0.3, -1.0])
    def test_steps_stay_inside_the_chart_near_its_bound(self, catalogue, mean):
        # at sigma = 5e-4 a step of 1e-3 would leave the chart (sigma > 0); the
        # capped step stays inside and matches the closed form
        model = catalogue["gaussian-kl"]
        point = np.array([mean, 5e-4])
        evaluation = geometry.connection_at(_neighbour_probes(model), point)
        assert geometry._relative_gap(evaluation.omega, model.oracle.connection(point)) <= 1e-10
        assert evaluation.probe_consistency <= 1e-10

    def test_neighbours_without_a_fibre_are_one_unsupported(self, catalogue):
        # gumbel's fibre exists only on a curve, so its neighbours have none;
        # at cond4 = 1 its own fibre passes the gate, and classify leaves the
        # probe check not evaluated
        from dsm_geom.models.gumbel import compatible_point

        model, loose = catalogue["gumbel"], Tolerances(cond4=1.0)
        assert model.probe_pairs_fn is None
        prefix = "^model gumbel has no off-fibre probes: gumbel fibre pair exists only on"
        with pytest.raises(Unsupported, match=prefix):
            geometry.connection_at(model, compatible_point(1.3), tol=loose)
        report = structure.classify(model, structure.default_grid(model, 3), tol=loose)
        assert report.condition4["status"] == "pass"
        assert report.probe_consistency == {"status": "not-evaluated", "worst": None}
        assert report.verdicts["exponential_family"] == "not-evaluated"


class TestLeviCivitaOracle:
    def test_sphere_connection_is_metric_connection(self):
        # the divergence-induced sphere connection coincides with the
        # Levi-Civita coefficients of its own metric
        sphere = models.build("vmf-sphere", kappa=2.0)
        point = np.array([1.1, 0.4])
        gamma = levi_civita_from_metric(sphere.oracle.metric, point)
        omega = geometry.connection_at(sphere, point).omega
        assert np.max(np.abs(gamma - omega)) < 1e-4


# ---------------------------------------------------------------------------
# Stacked fibre and probe evaluation against the per-member loop
# ---------------------------------------------------------------------------


def _loop_gradient(model, x, coords):
    if model.gradient_fn is not None:
        return np.asarray(model.gradient_fn(x, coords), dtype=float)
    return numdiff.fd_gradient(lambda t: model.divergence_fn(x, t), coords, model.chart.domain)


def _loop_hessian(model, x, coords):
    if model.hessian_fn is not None:
        hess = np.asarray(model.hessian_fn(x, coords), dtype=float)
        return 0.5 * (hess + hess.T)
    return numdiff.fd_hessian(lambda t: model.divergence_fn(x, t), coords, model.chart.domain)


def _loop_metric(model, coords, tol=Tolerances()):
    """metric_at as one Hessian, difference and reduction per fibre member."""
    members = model.fibre_sampler(coords)
    hessians = [_loop_hessian(model, x, coords) for x in members]
    mean = sum(hessians) / len(hessians)
    scale = max(float(np.max(np.abs(mean))), 1e-12)
    deviation = 0.0
    for i in range(len(hessians)):
        for j in range(i + 1, len(hessians)):
            gap = float(np.max(np.abs(hessians[i] - hessians[j]))) / scale
            deviation = max(deviation, gap)
    return mean, deviation, hessians


def _loop_family(model, coords, family):
    """One probe family's connection, one antithetic pair at a time."""
    data = model.probe_pairs(coords, family)
    n = coords.size
    probe_matrix = np.empty((n, n))
    rhs = np.empty((n, n, n))
    for c, (plus, minus) in enumerate(zip(data[:n], data[n:])):
        probe_matrix[c] = 0.5 * (
            _loop_gradient(model, plus, coords) - _loop_gradient(model, minus, coords)
        )
        rhs[c] = 0.5 * (_loop_hessian(model, plus, coords) - _loop_hessian(model, minus, coords))
    return np.linalg.solve(probe_matrix, rhs.reshape(n, n * n)).reshape(n, n, n)


class TestStackedEvaluation:
    @pytest.mark.parametrize("divergence_only", [False, True], ids=["model", "divergence-only"])
    @pytest.mark.parametrize(
        "name, hand_probes",
        [(name, True) for name in models.MODEL_NAMES if models.build(name).probe_pairs_fn]
        + [(name, False) for name in models.MODEL_NAMES],
        ids=lambda value: {True: "hand-probes", False: "neighbour-probes"}.get(value, value),
    )
    def test_bit_identical_to_the_per_member_loop(
        self, catalogue, name, hand_probes, divergence_only
    ):
        model = catalogue[name]
        if not hand_probes:
            model = _neighbour_probes(model)
        if divergence_only:
            model = dataclasses.replace(model, gradient_fn=None, hessian_fn=None)
        for point in structure.default_grid(model, 3):
            mean, deviation, hessians = _loop_metric(model, point)
            if deviation > Tolerances().cond4:  # regression-ls fails condition 4
                with pytest.raises(Condition4Violated) as excinfo:
                    geometry.metric_at(model, point)
                assert excinfo.value.deviation == deviation
                assert len(excinfo.value.member_hessians) == len(hessians)
                for got, want in zip(excinfo.value.member_hessians, hessians):
                    assert np.array_equal(got, want)
                continue
            evaluation = geometry.metric_at(model, point)
            assert np.array_equal(evaluation.matrix, mean)
            assert evaluation.fibre_deviation == deviation
            omega = _loop_family(model, point, 0)
            other = _loop_family(model, point, 1)
            gap = geometry._relative_gap(other, omega)
            single = geometry.connection_at(model, point, check_consistency=False)
            assert len(single.families) == 1
            assert np.array_equal(single.families[0], omega)
            assert np.array_equal(single.omega, omega)
            assert math.isnan(single.probe_consistency)
            assert np.array_equal(single.metric.matrix, mean)
            both = geometry.connection_at(model, point)  # a disagreement is a value
            assert len(both.families) == 2
            assert all(map(np.array_equal, both.families, (omega, other)))
            assert np.array_equal(both.omega, 0.5 * (omega + other))
            assert both.probe_consistency == gap

    @pytest.mark.parametrize(
        "name, options",
        [
            ("gce", ({"levels": (1.0, 2.0, 3.0)}, {"levels": (0.5, 1.5, 4.0)})),
            ("vmf-sphere", ({"kappa": 2.0}, {"kappa": 5.0})),
        ],
    )
    def test_point_caches_keep_models_and_points_apart(self, name, options):
        # each model reuses its per-point terms; interleaving two models and
        # two points A, B, A must give what a freshly built model gives at a
        # point it has not seen last (a third point C comes first)
        pair = [models.build(name, **kw) for kw in options]
        a, b, c = (structure.default_grid(pair[0], 3)[i] for i in (2, 6, 4))
        fresh = {}
        for index, kw in enumerate(options):
            for key, point in (("a", a), ("b", b)):
                model = models.build(name, **kw)
                geometry.connection_at(model, c)
                fresh[index, key] = geometry.connection_at(model, point)
        for key, point in (("a", a), ("b", b), ("a", a)):
            for index, model in enumerate(pair):
                got, want = geometry.connection_at(model, point), fresh[index, key]
                assert np.array_equal(got.omega, want.omega), (index, key)
                assert np.array_equal(got.metric.matrix, want.metric.matrix), (index, key)
                assert got.probe_consistency == want.probe_consistency, (index, key)
