import collections
import dataclasses
import math

import numpy as np
import pytest

from dsm_geom import geometry, models, numdiff, structure
from dsm_geom.core import ChartSpec, Tolerances
from dsm_geom.errors import Condition4Violated, HessianStructureViolated, MetricNotPD

from conftest import (
    HESSIAN_STRUCTURED,
    METRIC_BEARING,
    levi_civita_from_metric,
    random_chart_point,
    sphere_connection_reference,
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
            geometry.metric_at(catalogue["gumbel"], point, fibre_k=2)
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
            geometry.metric_at(catalogue["gumbel"], compatible_point(1.3), fibre_k=2)


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

    @pytest.mark.parametrize("name, point", [("gce", [1.0, -1.0]), ("vmf-sphere", [1.0, 0.3])])
    def test_fibre_evaluation_makes_only_its_model_calls(
        self, catalogue, monkeypatch, name, point
    ):
        # one geodesic field evaluation: the condition-4 gate samples 3
        # fibre members (1 sampler call, 3 Hessians), one probe family of 2
        # antithetic pairs costs 4 gradients and 4 Hessians, and the chart
        # is checked by connection_at and its gate only
        model = catalogue[name]
        calls = collections.Counter()

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        model_callables = (
            "divergence_fn", "gradient_fn", "hessian_fn", "fibre_sampler_fn", "probe_pairs_fn"
        )
        for attr in model_callables:
            monkeypatch.setattr(model, attr, counted(attr, getattr(model, attr)))
        for method in ("require", "contains"):
            monkeypatch.setattr(ChartSpec, method, counted("chart", getattr(ChartSpec, method)))
        geometry.connection_at(model, point, check_consistency=False)
        assert calls.pop("chart") <= 2
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
        dual = geometry.dual_connection_at(catalogue["regression-dlambda"], [0.5, -1.0])
        assert np.max(np.abs(dual)) < 1e-6

    def test_gaussian_dual_torsionless(self, catalogue):
        dual = geometry.dual_connection_at(catalogue["gaussian-kl"], [0.0, 1.0])
        assert geometry.torsion_residual(dual) < 1e-4

    def test_cylinder_dual_from_duality_formula(self):
        # independent oracle: w*^e_ac = g^{eb} (d_a g_bc - g_dc w^d_ab)
        # with g = diag(kappa, 1/lambda^2) and w = 0 gives -2/lambda
        cylinder = models.build("vmf-cylinder", kappa=1.0)
        dual = geometry.dual_connection_at(cylinder, [0.3, 2.0])
        assert dual[1, 1, 1] == pytest.approx(-2.0 / 2.0, abs=1e-4)
        mask = np.ones((2, 2, 2), dtype=bool)
        mask[1, 1, 1] = False
        assert np.max(np.abs(dual[mask])) < 1e-4


class TestCurvature:
    def test_gce_flat(self, catalogue):
        tensor = geometry.curvature_at(catalogue["gce"], [1.0, 0.2])
        assert tensor.max_abs < 1e-4

    def test_sphere_component_against_brute_force(self):
        sphere = models.build("vmf-sphere", kappa=1.0)
        point = np.array([math.pi / 3, 0.0])
        tensor = geometry.curvature_at(sphere, point)
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

    def test_zero_connection_model_exact(self, catalogue):
        tensor = geometry.curvature_at(catalogue["regression-dlambda"], [0.0, 0.0])
        assert tensor.max_abs < 1e-10

    def test_antisymmetric_in_last_pair(self, catalogue):
        tensor = geometry.curvature_at(catalogue["gaussian-kl"], [0.3, 1.5])
        swapped = np.transpose(tensor.components, (0, 1, 3, 2))
        assert np.max(np.abs(tensor.components + swapped)) < 1e-12


class TestCodazzi:
    def test_cylinder(self, catalogue):
        _, residual = geometry.codazzi_residual(catalogue["vmf-cylinder"], [0.3, 1.2])
        assert residual < 1e-6

    def test_gaussian(self, catalogue):
        _, residual = geometry.codazzi_residual(catalogue["gaussian-kl"], [0.0, 1.0])
        assert residual < 1e-4

    def test_constant_metric_zero_connection(self, catalogue):
        _, residual = geometry.codazzi_residual(catalogue["regression-dlambda"], [0.2, 0.4])
        assert residual < 1e-12

    def test_hessian_structure_chain(self, catalogue, rng):
        # probe consistency implies flat + Codazzi for Hessian-structured models
        for name in HESSIAN_STRUCTURED:
            model = catalogue[name]
            for _ in range(3):
                point = random_chart_point(model, rng)
                assert geometry.connection_at(model, point).probe_consistency <= 1e-3
                assert geometry.curvature_at(model, point).max_abs <= 1e-3, name
                assert geometry.codazzi_residual(model, point)[1] <= 1e-3, name


class TestMetricTransform:
    def test_gaussian_canonical(self, catalogue):
        residual = geometry.metric_transform_check(catalogue["gaussian-kl"], [0.0, 1.0])
        assert residual < 1e-4

    def test_identity_map(self, catalogue):
        model = catalogue["gaussian-kl"]
        identity = (lambda t: np.array(t, dtype=float), lambda t: np.array(t, dtype=float))
        residual = geometry.metric_transform_check(
            model, [0.0, 1.0], maps=identity, target_chart=model.chart
        )
        assert residual < 1e-10

    def test_gce_canonical(self, catalogue):
        residual = geometry.metric_transform_check(catalogue["gce"], [1.0, 0.5])
        assert residual < 1e-4


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


def _synthetic_model(hessian_matrix, degenerate_probes=False):
    """Minimal quadratic model for the error paths."""
    import math
    from dsm_geom.core import ChartSpec, ModelDefinition, MomentData, ProbePair

    chart = ChartSpec(
        dim=2,
        domain=((-math.inf, math.inf), (-math.inf, math.inf)),
        names=("u", "v"),
        sample_box=((-1.0, 1.0), (-1.0, 1.0)),
    )
    hessian_matrix = np.asarray(hessian_matrix, dtype=float)

    def divergence(x, theta):
        center = np.array([x.statistic("c1"), x.statistic("c2")])
        delta = np.asarray(theta) - center
        return float(0.5 * delta @ hessian_matrix @ delta)

    def sampler(theta, k):
        return [
            MomentData({"c1": theta[0], "c2": theta[1], "entropy": 0.0})
            for _ in range(k)
        ]

    def probes(theta, delta, family):
        if degenerate_probes:
            same = MomentData({"c1": theta[0], "c2": theta[1], "entropy": 0.0})
            return [ProbePair(same, same), ProbePair(same, same)]
        first = MomentData({"c1": theta[0] + delta, "c2": theta[1], "entropy": 0.0})
        first_m = MomentData({"c1": theta[0] - delta, "c2": theta[1], "entropy": 0.0})
        second = MomentData({"c1": theta[0], "c2": theta[1] + delta, "entropy": 0.0})
        second_m = MomentData({"c1": theta[0], "c2": theta[1] - delta, "entropy": 0.0})
        return [ProbePair(first, first_m), ProbePair(second, second_m)]

    return ModelDefinition(
        name="synthetic",
        chart=chart,
        statistic_schema=(),
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

    def test_degenerate_probes_raise(self):
        model = _synthetic_model(np.eye(2), degenerate_probes=True)
        with pytest.raises(geometry.ProbeSingular):
            geometry.connection_at(model, [0.0, 0.0])


class TestGenericProbeFallback:
    def test_model_without_probe_constructor(self):
        # the flat quadratic model declares its statistics; the generic
        # fallback perturbs them and recovers the zero connection
        from dsm_geom.core import StatisticSpec

        model = _synthetic_model([[2.0, 0.3], [0.3, 1.0]])
        model = dataclasses.replace(
            model,
            probe_pairs_fn=None,
            statistic_schema=(StatisticSpec("c1"), StatisticSpec("c2")),
        )
        assert model.has_probes
        evaluation = geometry.connection_at(model, [0.1, -0.2])
        assert np.max(np.abs(evaluation.omega)) < 1e-6
        assert evaluation.probe_consistency < 1e-6


class TestEmpiricalProviders:
    def test_weighted_sample_feeds_gaussian_models(self, catalogue, rng):
        from dsm_geom.core import WeightedSampleData
        from dsm_geom.fit import fit

        points = rng.normal(0.5, 1.5, size=40)
        sample = WeightedSampleData(points)
        result = fit(catalogue["gaussian-kl"], sample, [0.0, 1.0])
        mean = sample.statistic("mean_x")
        var = sample.statistic("mean_x2") - mean**2
        assert result.theta_star == pytest.approx([mean, math.sqrt(var)], abs=1e-6)

    def test_weighted_sample_answers_parameter_dependent_queries(self, catalogue):
        from dsm_geom.core import WeightedSampleData, divergence_gradient
        from dsm_geom import numdiff

        sample = WeightedSampleData([0.1, 0.9, 2.3], [0.2, 0.5, 0.3])
        model = catalogue["gumbel"]
        theta = np.array([1.2, 0.3])
        analytic = divergence_gradient(model, sample, theta)
        fd = numdiff.fd_gradient(
            lambda t: model.divergence_fn(sample, t),
            theta,
            model.chart.domain,
        )
        assert analytic == pytest.approx(fd, abs=1e-7)


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
    members = model.fibre_sampler(coords, min(geometry.FIBRE_K_DEFAULT, model.fibre_capacity))
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
    """One probe family's connection, one pair at a time."""
    pairs = model.probe_pairs(coords, geometry.PROBE_DELTA, family)
    n = coords.size
    probe_matrix = np.empty((len(pairs), n))
    rhs = np.empty((len(pairs), n, n))
    for c, pair in enumerate(pairs):
        probe_matrix[c] = 0.5 * (
            _loop_gradient(model, pair.plus, coords) - _loop_gradient(model, pair.minus, coords)
        )
        rhs[c] = 0.5 * (
            _loop_hessian(model, pair.plus, coords) - _loop_hessian(model, pair.minus, coords)
        )
    if len(pairs) == n:
        return np.linalg.solve(probe_matrix, rhs.reshape(n, n * n)).reshape(n, n, n)
    flat, *_ = np.linalg.lstsq(probe_matrix, rhs.reshape(len(pairs), n * n), rcond=None)
    return flat.reshape(n, n, n)


class TestStackedEvaluation:
    @pytest.mark.parametrize("divergence_only", [False, True], ids=["model", "divergence-only"])
    @pytest.mark.parametrize(
        "name", [name for name in models.MODEL_NAMES if models.build(name).has_probes]
    )
    def test_bit_identical_to_the_per_member_loop(self, catalogue, name, divergence_only):
        model = catalogue[name]
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
            assert np.array_equal(single.omega, omega)
            assert np.array_equal(single.metric.matrix, mean)
            try:
                both = geometry.connection_at(model, point)
            except HessianStructureViolated as err:
                assert err.deviation == gap
                assert all(map(np.array_equal, err.family_estimates, (omega, other)))
            else:
                assert both.probe_consistency == gap
                assert np.array_equal(both.omega, 0.5 * (omega + other))

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
